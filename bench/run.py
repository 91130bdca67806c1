#!/usr/bin/env python3
"""Benchmark the runs users make of this reproduction.

    python3 bench/run.py [--workload NAME ...] [--seed S] [--seconds T]
                         [--trace 0|1] [--scale standard|toy] [--out FILE]

Workloads (all four when ``--workload`` is not given):

- ``figures-cold``: ``run_figures`` over all 12 artifacts against a
  fresh, empty artifact store: simulation, table 2's uncached attacks
  and store writes.
- ``figures-warm``: the same call against a copy of a filled store;
  every job is a result-tier hit, so simulator changes must not move it.
- ``sweep-parallel``: ``python -m repro sweep`` over 8 profiles x all
  10 policies with ``-j 2`` and a checkpoint journal, no store.
- ``serve-warm``: ``python -m repro serve`` on a filled store, started
  ``serve_sessions`` times and each time driven by a closed loop over
  two keep-alive connections.

Every timed repetition is a fresh child process (``bench/child.py``)
that reaches the program only through its CLI or public functions.
Each workload repeats until ``--seconds`` have passed (at least
``min_reps`` times; serve-warm splits them over its sessions) and
reports medians.  Correctness gates run untimed on every invocation;
any failure makes the exit code non-zero.
``--trace 1`` adds one repetition under the layer shim
(``bench/spans.py``) and reports per-layer metrics instead of the
end-to-end ones.  The last line of standard output is one JSON object;
the full result (quartiles, samples, gates, environment) goes to
``--out``.  See ``bench/README.md``.
"""

import argparse
import hashlib
import http.client
import json
import os
import platform
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from urllib.parse import quote

from layers import (chrome_trace, layer_metrics, load_processes,
                    with_client_spans)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(BENCH, "child.py")
WORK = os.path.join(ROOT, ".bench_work")
OUT = os.path.join(ROOT, ".bench_out")
NATIVE_CACHE = os.path.join(ROOT, ".bench_build", "native")

WORKLOADS = ("figures-cold", "figures-warm", "sweep-parallel", "serve-warm")
DEFAULT_SEED = 2006
POOL_JOBS = 2          # pool workers and client connections: nproc here
CHILD_TIMEOUT = 150.0  # seconds before a stuck child is killed

#: Input sizes.  ``standard`` is what BENCHMARK.json's bounds were
#: measured at; ``toy`` keeps the self-tests fast.  The profile samples
#: are fixed, not drawn from the seed: profiles differ in simulation
#: cost, so a drawn sample would change the work with the seed.
SCALES = {
    "standard": {
        "figure_names": None,   # all registered artifacts
        "figure_benchmarks": ["gcc", "mcf", "ammp", "swim"],
        "figure_n": 1500, "figure_warmup": 1500,
        "sweep_benchmarks": ["gcc", "mcf", "parser", "twolf",
                             "ammp", "art", "equake", "swim"],
        "sweep_n": 40000, "sweep_warmup": 10000,
        "setup_probes": 6, "min_reps": 3, "min_requests": 30,
        "serve_sessions": 5,
    },
    "toy": {
        "figure_names": ["table1", "fig7", "fig8"],
        "figure_benchmarks": ["gzip", "swim"],
        "figure_n": 600, "figure_warmup": 600,
        "sweep_benchmarks": ["gzip", "swim"],
        "sweep_n": 2000, "sweep_warmup": 500,
        "setup_probes": 1, "min_reps": 2, "min_requests": 12,
        "serve_sessions": 2,
    },
}

#: Metrics reported beside the declared ones, where they apply.
NAMED_UNITS = {"sim_inst_per_s": "inst/s", "failed_frac": "ratio",
               "store_mb": "MB", "figure_get_p50_ms": "ms",
               "figure_get_p90_ms": "ms", "sweep_get_p50_ms": "ms",
               "sweep_get_p90_ms": "ms", "req_per_s": "1/s"}


# -- small helpers ---------------------------------------------------------

def summarize(values):
    """Median, quartiles and sample count of one metric's samples."""
    values = list(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "samples": values}


def p90_with_count(values):
    """``(p90, samples beyond it)``; p90 is None with fewer than 10 beyond."""
    ordered = sorted(values)
    index = int(len(ordered) * 0.9)
    beyond = len(ordered) - index
    return (ordered[index] if beyond >= 10 else None), beyond


def dir_bytes(path):
    total = 0
    for folder, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(folder, name))
    return total


def disk_mb(*paths):
    """Size on disk of files and directory trees, in MB."""
    return sum(dir_bytes(path) if os.path.isdir(path)
               else os.path.getsize(path) for path in paths) / 1e6


def result_inodes(store):
    """Inode of every result-tier entry of the store at ``store``.

    A store hit only refreshes an entry's mtime; a save replaces the
    file, so an entry that was simulated again has a new inode even
    though its name (the job's content address) is the same.
    """
    folder = os.path.join(store, "results")
    return {name: os.stat(os.path.join(folder, name)).st_ino
            for name in os.listdir(folder)}


def series_digest(out_dir, names):
    """sha256 over every figure-series JSON a figure run wrote."""
    digest = hashlib.sha256()
    for name in sorted(names):
        with open(os.path.join(out_dir, name + ".json"), "rb") as handle:
            digest.update(name.encode() + b"\0" + handle.read() + b"\0")
    return digest.hexdigest()


def sweep_digest(manifest, volatile):
    """sha256 of a sweep manifest's per-job results, volatile keys dropped."""
    runs = [{key: value for key, value in run.items()
             if key != "accounting" and key not in volatile}
            for run in manifest["runs"]]
    text = json.dumps(runs, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def figures_identical(gates, label, reference_dir, out_dir):
    """Gate: every figure-series cell in ``out_dir`` equals the reference."""
    from repro.serve.diff import diff_figures

    report = diff_figures(reference_dir, out_dir)
    return gates.check("%s identical to cold" % label, report["identical"],
                       "%d changed cell(s), only in one side: %s"
                       % (report["changed_cells"],
                          report["only_a"] + report["only_b"]))


class Gates:
    """Correctness checks of one invocation (all untimed)."""

    def __init__(self):
        self.results = []

    def check(self, name, ok, detail=""):
        self.results.append({"name": name, "ok": bool(ok),
                             "detail": "" if ok else detail})
        return ok

    @property
    def ok(self):
        return all(gate["ok"] for gate in self.results)


class Outcome:
    """What the timed repetitions of one workload produced."""

    def __init__(self, metrics):
        self.samples = {metric: [] for metric in metrics}
        self.named = {}
        self.attempted = 0
        self.failed = 0
        self.figures_dir = None

    def add(self, rep):
        for metric, value in rep.items():
            if metric in self.samples:
                self.samples[metric].append(value)


# -- child processes -------------------------------------------------------

def child_env(work):
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env.update(PYTHONPATH=SRC, REPRO_NATIVE="require",
               REPRO_NATIVE_CACHE=NATIVE_CACHE, TMPDIR=tmp)
    return env


class Child:
    """One fresh child process running ``bench/child.py``."""

    def __init__(self, spec, rep_dir, env):
        os.makedirs(rep_dir, exist_ok=True)
        read_fd, write_fd = os.pipe()
        spec = dict(spec, src=SRC, ready_fd=write_fd)
        spec_path = os.path.join(rep_dir, "spec.json")
        with open(spec_path, "w") as handle:
            json.dump(spec, handle)
        self.log_path = os.path.join(rep_dir, "child.log")
        with open(self.log_path, "wb") as log:
            self.spawned = time.perf_counter()
            self.proc = subprocess.Popen(
                [sys.executable, CHILD, spec_path], cwd=ROOT, env=env,
                stdout=log, stderr=subprocess.STDOUT, pass_fds=(write_fd,))
        os.close(write_fd)
        self._ready_fd = read_fd
        self._killer = threading.Timer(CHILD_TIMEOUT, self.proc.kill)
        self._killer.start()
        self.ready = None

    def wait_ready(self):
        """The child's ready stamp (None if it died before sending one)."""
        chunks = []
        while True:
            chunk = os.read(self._ready_fd, 64)
            if not chunk:
                break
            chunks.append(chunk)
        os.close(self._ready_fd)
        self._ready_fd = None
        data = b"".join(chunks)
        self.ready = float(data) if data else None
        return self.ready

    def wait(self):
        """Reap the child; returns (exit code, end time, peak RSS in MB).

        ``os.wait4`` reports the largest RSS of the child and of every
        descendant it reaped, so pool workers are covered.
        """
        if self._ready_fd is not None:
            self.wait_ready()
        try:
            _pid, status, usage = os.wait4(self.proc.pid, 0)
            ended = time.perf_counter()
        finally:
            self._killer.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        return self.proc.returncode, ended, usage.ru_maxrss / 1024.0

    def log_tail(self, lines=15):
        with open(self.log_path, errors="replace") as handle:
            return "".join(handle.readlines()[-lines:])


def run_child(spec, rep_dir, env):
    """Run one repetition to completion; returns its timings."""
    child = Child(spec, rep_dir, env)
    ready = child.wait_ready()
    code, ended, rss = child.wait()
    if code != 0 or ready is None:
        raise RuntimeError("child exited %s:\n%s" % (code, child.log_tail()))
    return {"setup_s": ready - child.spawned, "wall_s": ended - ready,
            "peak_rss_mb": rss, "ready": ready, "ended": ended}


# -- the benchmark ---------------------------------------------------------

class Bench:
    def __init__(self, args, scale, work, declared):
        self.args = args
        self.scale = scale
        self.work = work
        self.declared = declared
        self.env = child_env(work)
        self.gates = Gates()
        self.fill = None   # (store, out) of a completed cold figure run
        from repro.exec.retry import JobResult
        from repro.experiments.figures import ARTIFACTS
        from repro.policies.registry import FIGURE7_POLICIES, POLICY_NAMES
        self.volatile = JobResult.VOLATILE_FIELDS
        self.figure_names = scale["figure_names"] or list(ARTIFACTS)
        self.all_policies = list(POLICY_NAMES)
        self.figure7 = list(FIGURE7_POLICIES)
        with open(os.path.join(BENCH, "goldens.json")) as handle:
            self.pins = json.load(handle)
        self.digests = {}
        self.native = False

    def rep_dir(self, *parts):
        return os.path.join(self.work, *parts)

    def trace_dir(self, workload):
        path = self.rep_dir("spans", workload)
        os.makedirs(path, exist_ok=True)
        return path

    def outcome(self):
        return Outcome(self.declared["end_to_end"])

    def repeat(self, outcome, measure):
        """Call ``measure(i)`` until ``--seconds`` passed and min reps ran."""
        started = time.perf_counter()
        i = 0
        while (i < self.scale["min_reps"]
               or time.perf_counter() - started < self.args.seconds):
            outcome.add(measure(i))
            i += 1
        return i

    def probe_setup(self, outcome, spec):
        """Extra set-up samples: children that exit once they are ready."""
        for i in range(self.scale["setup_probes"]):
            outcome.add({"setup_s": run_child(
                dict(spec, probe=True), self.rep_dir("probe", str(i)),
                self.env)["setup_s"]})

    # -- gates ------------------------------------------------------------

    def check_goldens(self):
        """Pinned cycle goldens, native kernel required."""
        child = Child({"kind": "goldens"}, self.rep_dir("goldens"),
                      self.env)
        code, _ended, _rss = child.wait()
        self.native = child.ready is not None
        self.gates.check("perf-goldens (REPRO_NATIVE=require)", code == 0,
                         child.log_tail())

    def check_digest(self, kind, label, digest, pinned):
        """Gate: ``digest`` equals the first one of this run and the pin."""
        first = self.digests.setdefault(kind, digest)
        if self.args.scale != "standard":
            pinned = None
        ok = digest == first and (pinned is None or digest == pinned)
        self.gates.check("%s %s digest" % (label, kind), ok,
                         "got %s, expected %s" % (digest, pinned or first))

    def check_figures(self, label, out_dir):
        self.check_digest("figures", label,
                          series_digest(out_dir, self.figure_names),
                          self.pins.get("figures_series_sha256"))

    def figure_spec(self, store, out, trace_dir=None):
        return {"kind": "figures", "store": store, "out": out,
                "names": self.figure_names,
                "benchmarks": self.scale["figure_benchmarks"],
                "n": self.scale["figure_n"],
                "warmup": self.scale["figure_warmup"],
                "trace_dir": trace_dir}

    def figure_manifest(self, out):
        with open(os.path.join(out, "figures-manifest.json")) as handle:
            return json.load(handle)

    def filled_store(self):
        """(store, out) of a cold figure run, made untimed if needed."""
        if self.fill is None:
            base = self.rep_dir("fill")
            store, out = (os.path.join(base, "store"),
                          os.path.join(base, "out"))
            run_child(self.figure_spec(store, out), base, self.env)
            self.check_figures("fill", out)
            self.fill = (store, out)
        return self.fill

    def copy_fill(self, name):
        store, out = self.filled_store()
        base = self.rep_dir(name)
        shutil.copytree(store, os.path.join(base, "store"))
        shutil.copytree(out, os.path.join(base, "fill-out"))
        return os.path.join(base, "store"), os.path.join(base, "fill-out")

    # -- workloads --------------------------------------------------------

    def figures_cold(self):
        per_job = self.scale["figure_n"] + self.scale["figure_warmup"]
        outcome = self.outcome()
        store_mb = []

        def measure(i):
            base = self.rep_dir("cold", str(i))
            store, out = (os.path.join(base, "store"),
                          os.path.join(base, "out"))
            rep = run_child(self.figure_spec(store, out), base, self.env)
            manifest = self.figure_manifest(out)
            outcome.attempted += manifest["total_jobs"]
            outcome.failed += manifest["total_failures"]
            self.check_figures("figures-cold rep %d" % i, out)
            # A job id seen twice in one run is a result-tier hit.
            ran = len({job["job_id"] for entry in manifest["figures"]
                       for job in entry["jobs"]})
            rep["work_per_s"] = ran * per_job / rep["wall_s"]
            rep["disk_mb"] = disk_mb(store, out)
            store_mb.append(disk_mb(store))
            if self.fill is None:
                self.fill = (store, out)
            else:
                shutil.rmtree(store)
            return rep

        self.probe_setup(outcome, self.figure_spec(
            self.rep_dir("probe-store"), None))
        self.repeat(outcome, measure)
        outcome.named = {"sim_inst_per_s": summarize(
                             outcome.samples["work_per_s"]),
                         "store_mb": summarize(store_mb)}
        outcome.figures_dir = self.fill[1]
        return outcome

    def figures_cold_traced(self):
        base = self.rep_dir("cold-traced")
        spans = self.trace_dir("figures-cold")
        out = os.path.join(base, "out")
        rep = run_child(self.figure_spec(os.path.join(base, "store"), out,
                                         spans), base, self.env)
        self.check_figures("figures-cold traced", out)
        return rep, load_processes(spans), 1, {}

    def figures_warm(self):
        store, fill_out = self.copy_fill("warm")
        published = result_inodes(store)
        outcome = self.outcome()

        def measure(i):
            base = self.rep_dir("warm", str(i))
            out = os.path.join(base, "out")
            rep = run_child(self.figure_spec(store, out), base, self.env)
            manifest = self.figure_manifest(out)
            outcome.attempted += manifest["total_jobs"]
            outcome.failed += manifest["total_failures"]
            figures_identical(self.gates, "figures-warm rep %d" % i,
                              fill_out, out)
            rep["work_per_s"] = manifest["total_jobs"] / rep["wall_s"]
            rep["disk_mb"] = disk_mb(store, out)
            if outcome.figures_dir is None:
                outcome.figures_dir = out
            return rep

        self.probe_setup(outcome, self.figure_spec(store, None))
        self.repeat(outcome, measure)
        written = [name for name, inode in result_inodes(store).items()
                   if published.get(name) != inode]
        self.gates.check("figures-warm served every job from the store",
                         not written,
                         "%d result(s) written by warm runs" % len(written))
        self.warm_store = store
        return outcome

    def figures_warm_traced(self):
        base = self.rep_dir("warm-traced")
        spans = self.trace_dir("figures-warm")
        store = getattr(self, "warm_store", None) or self.copy_fill(
            "warm-traced-store")[0]
        rep = run_child(self.figure_spec(store, os.path.join(base, "out"),
                                         spans), base, self.env)
        return rep, load_processes(spans), 1, {}

    def sweep_argv(self, base):
        argv = ["sweep"] + list(self.scale["sweep_benchmarks"])
        for policy in self.all_policies:
            argv += ["-p", policy]
        return argv + ["-j", str(POOL_JOBS), "--seed", str(self.args.seed),
                       "-n", str(self.scale["sweep_n"]),
                       "--warmup", str(self.scale["sweep_warmup"]),
                       "--checkpoint", os.path.join(base, "journal.jsonl"),
                       "--emit-json", os.path.join(base, "manifest.json")]

    def check_sweep(self, label, base):
        with open(os.path.join(base, "manifest.json")) as handle:
            manifest = json.load(handle)
        self.check_digest("sweep", label,
                          sweep_digest(manifest, self.volatile),
                          self.pins.get("sweep_runs_sha256", {}).get(
                              str(self.args.seed)))
        return manifest

    def sweep_parallel(self):
        per_job = self.scale["sweep_n"] + self.scale["sweep_warmup"]
        outcome = self.outcome()

        def measure(i):
            base = self.rep_dir("sweep", str(i))
            rep = run_child({"kind": "cli", "argv": self.sweep_argv(base)},
                            base, self.env)
            manifest = self.check_sweep("sweep-parallel rep %d" % i, base)
            runs = len(manifest["runs"])
            outcome.attempted += runs + len(manifest["failures"])
            outcome.failed += len(manifest["failures"])
            rep["work_per_s"] = runs * per_job / rep["wall_s"]
            rep["disk_mb"] = disk_mb(os.path.join(base, "journal.jsonl"),
                                     os.path.join(base, "manifest.json"))
            return rep

        self.probe_setup(outcome, {"kind": "cli"})
        self.repeat(outcome, measure)
        outcome.named = {"sim_inst_per_s": summarize(
            outcome.samples["work_per_s"])}
        return outcome

    def sweep_parallel_traced(self):
        base = self.rep_dir("sweep-traced")
        spans = self.trace_dir("sweep-parallel")
        rep = run_child({"kind": "cli", "argv": self.sweep_argv(base),
                         "trace_dir": spans}, base, self.env)
        self.check_sweep("sweep-parallel traced", base)
        journal = os.path.getsize(os.path.join(base, "journal.jsonl"))
        return (rep, load_processes(spans), POOL_JOBS,
                {"journal.bytes": journal})

    # -- serving ----------------------------------------------------------

    def serve_paths(self):
        benchmarks = ",".join(quote(name, safe="")
                              for name in self.scale["figure_benchmarks"])
        # "+" must travel as %2B: a bare "+" decodes to a space and the
        # server answers 400 for the unknown policy.
        policies = ",".join(quote(name, safe="") for name in self.figure7)
        sweep = ("/sweep?benchmark=%s&policy=%s&n=%d&warmup=%d"
                 % (benchmarks, policies, self.scale["figure_n"],
                    self.scale["figure_warmup"]))
        figures = ["/figure/%s" % name for name in self.figure_names]
        random.Random(self.args.seed).shuffle(figures)
        return figures, sweep

    def start_server(self, store, out, base, trace_dir=None):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        argv = ["serve", "--store", store, "--out", out, "--port",
                str(port), "--quiet", "-n", str(self.scale["figure_n"]),
                "--warmup", str(self.scale["figure_warmup"])]
        child = Child({"kind": "cli", "argv": argv, "trace_dir": trace_dir},
                      base, self.env)
        child.wait_ready()
        deadline = time.perf_counter() + 60.0
        while True:
            if child.proc.poll() is not None:
                raise RuntimeError("server exited:\n" + child.log_tail())
            try:
                conn = http.client.HTTPConnection("127.0.0.1", port,
                                                  timeout=5)
                conn.request("GET", "/healthz")
                status = conn.getresponse().status
                conn.close()
                if status == 200:
                    break
            except OSError:
                pass
            if time.perf_counter() > deadline:
                child.proc.kill()
                child.wait()
                raise RuntimeError("server never answered /healthz")
            time.sleep(0.002)
        child.setup_s = time.perf_counter() - child.spawned
        child.port = port
        return child

    def stop_server(self, child):
        child.proc.send_signal(signal.SIGINT)
        code, _ended, rss = child.wait()
        if code != 0:
            raise RuntimeError("server exited %s:\n%s"
                               % (code, child.log_tail()))
        return rss

    def drive(self, port, seconds, out):
        """Closed loop: connection 1 cycles figures, 2 repeats /sweep.

        Returns ``(kind, sent, received)`` per request, the problems
        found (a non-200 answer, a body that differs from the artifact
        on disk or from the first /sweep answer, a /sweep cell that is
        not a hit, a broken connection) and the load window.
        """
        figures, sweep = self.serve_paths()
        expected = {}
        for path in figures:
            name = path.rsplit("/", 1)[1]
            with open(os.path.join(out, name + ".json"), "rb") as handle:
                expected[path] = handle.read()
        requests = []
        problems = []
        start = time.perf_counter()
        stop_at = start + seconds

        def loop(kind, paths):
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            first_sweep = None
            i = 0
            try:
                while (time.perf_counter() < stop_at
                       or i < self.scale["min_requests"]):
                    path = paths[i % len(paths)]
                    i += 1
                    sent = time.perf_counter()
                    conn.request("GET", path)
                    response = conn.getresponse()
                    body = response.read()
                    requests.append((kind, sent, time.perf_counter()))
                    ok = response.status == 200
                    if ok and kind == "figure":
                        ok = body == expected[path]
                    elif ok and first_sweep is None:
                        cells = json.loads(body)["cells"]
                        ok = bool(cells) and all(cell["status"] == "hit"
                                                 for cell in cells)
                        first_sweep = body if ok else None
                    elif ok:
                        ok = body == first_sweep
                    if not ok:
                        problems.append("%s -> %d" % (path,
                                                      response.status))
            except (OSError, http.client.HTTPException, ValueError,
                    KeyError) as exc:
                problems.append("%s connection: %r" % (kind, exc))
            finally:
                conn.close()

        threads = [threading.Thread(target=loop, args=("figure", figures)),
                   threading.Thread(target=loop, args=("sweep", [sweep]))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return requests, problems, (start, time.perf_counter())

    def serve_session(self, store, out, base, seconds, trace_dir=None):
        """Start a server, drive it for ``seconds``, stop it.

        Returns the server's set-up time, the requests, the problems the
        load loop found, the load window and the server's peak RSS.
        """
        server = self.start_server(store, out, base, trace_dir)
        try:
            requests, problems, window = self.drive(server.port, seconds,
                                                    out)
        finally:
            rss = self.stop_server(server)
        return server.setup_s, requests, problems, window, rss

    def serve_warm(self):
        store, out = self.copy_fill("serve")
        self.serve_store = (store, out)
        outcome = self.outcome()
        sessions = self.scale["serve_sessions"]
        latencies = {"figure": [], "sweep": []}
        problems = []
        for i in range(sessions):
            setup_s, requests, found, window, rss = self.serve_session(
                store, out, self.rep_dir("serve", str(i)),
                self.args.seconds / sessions)
            problems += found
            for kind, sent, received in requests:
                latencies[kind].append(received - sent)
            outcome.add({"setup_s": setup_s, "peak_rss_mb": rss,
                         "work_per_s": len(requests) / (window[1]
                                                        - window[0]),
                         "disk_mb": disk_mb(store, out)})
            outcome.attempted += len(requests)
        self.gates.check("serve-warm bodies identical to artifacts, every "
                         "/sweep cell a hit", not problems,
                         "; ".join(problems[:5]))
        outcome.failed = len(problems)
        # The operation timed here is one /sweep GET: it reads the result
        # tier once per cell, where a figure GET only reads one file.
        outcome.samples["wall_s"] = latencies["sweep"]
        outcome.named["req_per_s"] = summarize(outcome.samples["work_per_s"])
        for kind, values in latencies.items():
            p90, beyond = p90_with_count(values)
            outcome.named[kind + "_get_p50_ms"] = dict(
                summarize([x * 1e3 for x in values]), samples=None)
            outcome.named[kind + "_get_p90_ms"] = {
                "value": None if p90 is None else p90 * 1e3,
                "n": len(values), "beyond": beyond}
        return outcome

    def serve_warm_traced(self):
        store, out = getattr(self, "serve_store", None) or self.copy_fill(
            "serve-traced-store")
        spans = self.trace_dir("serve-warm")
        _setup, requests, problems, window, _rss = self.serve_session(
            store, out, self.rep_dir("serve-traced"),
            max(1.0, self.args.seconds / self.scale["serve_sessions"]),
            trace_dir=spans)
        self.gates.check("serve-warm traced responses", not problems,
                         "; ".join(problems[:5]))
        server_spans, = load_processes(spans)
        rep = {"ready": window[0], "ended": window[1],
               "wall_s": statistics.median(received - sent
                                           for kind, sent, received
                                           in requests if kind == "sweep")}
        return rep, [with_client_spans(server_spans, requests)], 1, {}


def measure_workload(bench, name):
    """Timed repetitions (plus the traced one) of one workload."""
    outcome = getattr(bench, name.replace("-", "_"))()
    units = bench.declared["end_to_end"]
    metrics = {metric: dict(summarize(values), unit=units[metric])
               for metric, values in outcome.samples.items()}
    named = {key: dict(stats, unit=NAMED_UNITS[key])
             for key, stats in outcome.named.items()}
    named["failed_frac"] = {
        "value": outcome.failed / max(1, outcome.attempted),
        "unit": NAMED_UNITS["failed_frac"]}
    result = {"reps": len(outcome.samples["wall_s"]),
              "attempted": outcome.attempted, "failed": outcome.failed,
              "metrics": metrics, "named": named,
              "figures_dir": outcome.figures_dir}
    if bench.args.trace:
        result.update(trace_workload(bench, name, metrics["wall_s"]["value"]))
    return result


def trace_workload(bench, name, untraced_wall):
    """One repetition under the layer shim; returns per-layer results."""
    rep, processes, jobs, extra = getattr(
        bench, name.replace("-", "_") + "_traced")()
    # The main process's span flush is tracing overhead, not a layer.
    flushed = min(process["flush_start"] for process in processes
                  if process["main"])
    window = (rep["ready"], min(rep["ended"], flushed))
    # Only the sweep writes a journal; elsewhere it reads 0 bytes.
    metrics = {"journal.bytes": 0}
    metrics.update(layer_metrics(processes, window, pool_jobs=jobs))
    metrics.update(extra)
    metrics["trace.overhead_pct"] = (100.0 * (rep["wall_s"] - untraced_wall)
                                     / untraced_wall)
    os.makedirs(bench.args.run_dir, exist_ok=True)
    trace_path = os.path.join(bench.args.run_dir, name + ".trace.json")
    with open(trace_path, "w") as handle:
        json.dump(chrome_trace(processes, window, name), handle)
    return {"layers": {key: metrics[key]
                       for key in bench.declared["per_layer"]},
            "traced_wall_s": rep["wall_s"], "chrome_trace": trace_path}


def environment(args, load_start, native, reps):
    env = {"python": platform.python_version(),
           "nproc": len(os.sched_getaffinity(0)),
           "loadavg_start": list(load_start),
           "loadavg_end": list(os.getloadavg()),
           "native_available": native, "seed": args.seed,
           "seconds": args.seconds, "scale": args.scale,
           "trace": bool(args.trace), "reps": reps,
           "git_sha": None, "git_dirty": None}
    if os.path.isdir(os.path.join(ROOT, ".git")):
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        status = subprocess.run(["git", "status", "--porcelain",
                                 "--untracked-files=no"], cwd=ROOT,
                                capture_output=True, text=True)
        if sha.returncode == 0:
            env["git_sha"] = sha.stdout.strip()
            env["git_dirty"] = bool(status.stdout.strip())
    return env


def format_value(value):
    return "--" if value is None else "%.6g" % value


def render(result):
    lines = []
    for name, workload in result["workloads"].items():
        lines.append("== %s: %d rep(s), %d attempted, %d failed"
                     % (name, workload["reps"], workload["attempted"],
                        workload["failed"]))
        rows = list(workload["metrics"].items())
        rows += list(workload["named"].items())
        for metric, stats in rows:
            spread = ""
            if "q1" in stats:
                spread = "[q1 %s, q3 %s, n=%d]" % (
                    format_value(stats["q1"]), format_value(stats["q3"]),
                    stats["n"])
            elif "beyond" in stats:
                spread = "[n=%d, %d beyond p90]" % (stats["n"],
                                                    stats["beyond"])
            lines.append("  %-18s %12s %-6s %s"
                         % (metric, format_value(stats["value"]),
                            stats["unit"], spread))
        if "layers" in workload:
            layers = workload["layers"]
            lines.append("  %-22s %9s %6s" % ("layer", "self_s", "calls"))
            for key, value in layers.items():
                if key.endswith(".self_s") and value:
                    layer = key[:-len(".self_s")]
                    lines.append("  %-22s %9.4f %6s"
                                 % (layer, value,
                                    layers.get(layer + ".calls", "")))
            lines.append("  traced wall %.4f s, overhead %.1f%%, coverage "
                         "%.1f%%, unaccounted %.4f s, chrome trace %s"
                         % (workload["traced_wall_s"],
                            layers["trace.overhead_pct"],
                            layers["trace.coverage_pct"],
                            layers["trace.unaccounted_s"],
                            workload["chrome_trace"]))
    lines.append("gates:")
    for gate in result["gates"]:
        lines.append("  %-4s %s%s" % ("ok" if gate["ok"] else "FAIL",
                                      gate["name"],
                                      (": " + gate["detail"])
                                      if gate["detail"] else ""))
    if "environment" in result:
        lines.append("environment: " + json.dumps(result["environment"]))
    return "\n".join(lines)


def summary_line(result, declared):
    """The one-object last line: e2e metrics, or per-layer under --trace."""
    workloads = result["workloads"]
    metrics = {}
    for name, workload in workloads.items():
        prefix = "" if len(workloads) == 1 else name + "/"
        if result["environment"]["trace"]:
            for metric, unit in declared["per_layer"].items():
                metrics[prefix + metric] = {
                    "value": workload["layers"][metric], "unit": unit}
        else:
            for metric, unit in declared["end_to_end"].items():
                metrics[prefix + metric] = {
                    "value": workload["metrics"][metric]["value"],
                    "unit": unit}
    return {"correct": result["correct"],
            "attempted": max(1, sum(w["attempted"]
                                    for w in workloads.values())),
            "failed": sum(w["failed"] for w in workloads.values()),
            "metrics": metrics}


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {kind: {metric["name"]: metric["unit"] for metric in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="sweep trace seed and request order "
                             "(default %d)" % DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measure each workload at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add a traced repetition and report "
                             "per-layer metrics")
    parser.add_argument("--scale", choices=sorted(SCALES),
                        default="standard",
                        help="input sizes (toy: for the self-tests)")
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="full result JSON (default: under "
                             ".bench_out/)")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("error: no program sources at %s" % SRC, file=sys.stderr)
        return 2
    declared = declared_metrics()
    sys.path.insert(0, SRC)
    workloads = args.workload or list(WORKLOADS)
    stamp = "%s-%d" % (time.strftime("%Y%m%d-%H%M%S"), os.getpid())
    args.run_dir = os.path.join(OUT, stamp)
    work = os.path.join(WORK, stamp)
    os.makedirs(work)
    load_start = os.getloadavg()
    try:
        bench = Bench(args, SCALES[args.scale], work, declared)
        bench.check_goldens()
        results = {}
        for name in workloads:
            try:
                results[name] = measure_workload(bench, name)
            except RuntimeError as exc:
                bench.gates.check("%s ran" % name, False, str(exc))
                print(render({"workloads": results,
                              "gates": bench.gates.results}))
                return 1
        for name, workload in results.items():
            if workload["figures_dir"]:
                kept = os.path.join(args.run_dir, "figures-" + name)
                shutil.copytree(workload["figures_dir"], kept)
                workload["figures_dir"] = kept
        result = {"kind": "bench-result", "correct": bench.gates.ok,
                  "environment": environment(
                      args, load_start, bench.native,
                      {name: w["reps"] for name, w in results.items()}),
                  "gates": bench.gates.results,
                  "digests": bench.digests, "workloads": results}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out = args.out or os.path.join(args.run_dir, "result.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as handle:
        json.dump(result, handle, indent=1)
    print(render(result))
    print("full result: %s" % out)
    print(json.dumps(summary_line(result, declared)))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
