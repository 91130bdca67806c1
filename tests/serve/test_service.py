"""Serving-tier tests: warm/cold figures, single-flight, sweeps, HTTP."""

import http.client
import json
import os
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.exec import ArtifactStore, set_active_store, set_attempt_hook
from repro.experiments.figures import ARTIFACTS, run_figures
from repro.obs.metrics import MetricsRegistry
from repro.serve import FigureService, make_server
from repro.serve.service import JSON_TYPE, RETRY_AFTER_SECONDS, TEXT_TYPE
from tests.repro_env import repro_env

SCALE = dict(num_instructions=600, warmup=300)
BENCHMARKS = ("gzip",)


class Boom(RuntimeError):
    """Deterministic injected failure."""


@pytest.fixture
def hook():
    """Install-and-restore wrapper around set_attempt_hook."""
    installed = []

    def install(fn):
        installed.append(set_attempt_hook(fn))
        return fn

    yield install
    while installed:
        set_attempt_hook(installed.pop())


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


@pytest.fixture
def active(store):
    """Install ``store`` process-wide for the test, restore after."""
    previous = set_active_store(store)
    yield store
    set_active_store(previous)


def make_service(tmp_path, **kwargs):
    defaults = dict(benchmarks=BENCHMARKS, jobs=1)
    defaults.update(SCALE)
    defaults.update(kwargs)
    return FigureService(str(tmp_path / "serve-out"), **defaults)


def wait_warm(service, name, timeout=120.0):
    """Poll ``figure()`` until 200; returns the artifact bytes."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, body, _ = service.figure(name)
        if status == 200:
            return body
        if status == 500:
            raise AssertionError("regeneration failed: %r" % (body,))
        time.sleep(0.05)
    raise AssertionError("figure %s never warmed" % name)


class TestFigureEndpoint:
    def test_unknown_figure_is_404(self, tmp_path):
        service = make_service(tmp_path)
        status, body, _ = service.figure("fig99")
        assert status == 404
        assert "unknown figure" in body["error"]

    def test_unknown_format_is_400(self, tmp_path):
        service = make_service(tmp_path)
        status, body, _ = service.figure("fig8", fmt="csv")
        assert status == 400
        assert "format" in body["error"]

    def test_warm_figure_serves_artifact_bytes_with_zero_regens(
            self, tmp_path):
        out = tmp_path / "serve-out"
        run_figures(["fig8"], str(out), benchmarks=BENCHMARKS, jobs=1,
                    emit_json=True, **SCALE)
        service = make_service(tmp_path)
        try:
            status, body, ctype = service.figure("fig8")
            assert status == 200
            assert ctype == JSON_TYPE
            assert body == (out / "fig8.json").read_bytes()
            status, text, ctype = service.figure("fig8", fmt="txt")
            assert status == 200
            assert ctype == TEXT_TYPE
            assert text == (out / "fig8.txt").read_bytes()
            # warm requests never simulate
            assert service.regenerations == 0
        finally:
            service.close()

    def test_cold_figure_single_flight_under_concurrent_clients(
            self, tmp_path):
        service = make_service(tmp_path)
        try:
            statuses = []
            lock = threading.Lock()

            def client():
                status, _, _ = service.figure("fig8")
                with lock:
                    statuses.append(status)

            threads = [threading.Thread(target=client) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            # every client either got the warming hint or (if the
            # regeneration was quick) the finished artifact
            assert all(status in (200, 202) for status in statuses)
            body = wait_warm(service, "fig8")
            # K concurrent clients coalesced into ONE regeneration
            assert service.regenerations == 1
            # ... and the served bytes are identical to what
            # ``repro figures --emit-json`` writes for the same scale.
            ref = tmp_path / "ref"
            run_figures(["fig8"], str(ref), benchmarks=BENCHMARKS,
                        jobs=1, emit_json=True, **SCALE)
            assert body == (ref / "fig8.json").read_bytes()
        finally:
            service.close()

    def test_cold_figure_answers_202_with_retry_hint(self, tmp_path):
        service = make_service(tmp_path)
        service._regenerate = lambda key, payload: None
        try:
            status, body, _ = service.figure("fig9")
            assert status == 202
            assert body["status"] == "warming"
            assert body["figure"] == "fig9"
            assert body["retry_after"] == RETRY_AFTER_SECONDS
        finally:
            service.close()

    def test_figure_is_warm_only_after_its_regeneration_settles(
            self, tmp_path):
        """The artifact JSON lands before the drain counts the
        regeneration: until the key leaves ``_warming`` the answer is
        still 202, so a 200 always comes with the counter bumped."""
        service = make_service(tmp_path)
        written = threading.Event()
        release = threading.Event()

        def regenerate(key, payload):
            os.makedirs(service.out_dir, exist_ok=True)
            with open(service._artifact(key[1], "json"), "w") as handle:
                handle.write("{}")
            written.set()
            assert release.wait(30.0)

        service._regenerate = regenerate
        try:
            status, _, _ = service.figure("fig9")
            assert status == 202
            assert written.wait(30.0)
            for _ in range(3):
                status, body, _ = service.figure("fig9")
                assert status == 202
                assert body["status"] == "warming"
                assert service.figure_state("fig9") == "warming"
                assert service.regenerations == 0
            release.set()
            assert wait_warm(service, "fig9", timeout=30.0) == b"{}"
            assert service.regenerations == 1
            assert service.figure_state("fig9") == "warm"
        finally:
            release.set()
            service.close()

    def test_failed_regeneration_reports_500_once_then_rearms(
            self, tmp_path, hook):
        def explode(job, attempt):
            raise Boom("injected")

        hook(explode)
        service = make_service(tmp_path)
        try:
            status, _, _ = service.figure("fig8")
            assert status == 202
            deadline = time.monotonic() + 60.0
            while service.figure_state("fig8") != "failed":
                assert time.monotonic() < deadline
                time.sleep(0.02)
            status, body, _ = service.figure("fig8")
            assert status == 500
            assert "Boom" in body["error"]
            # the failure was cleared: the next request retries
            status, _, _ = service.figure("fig8")
            assert status == 202
        finally:
            service.close()

    def test_list_figures_reports_registry_and_state(self, tmp_path):
        out = tmp_path / "serve-out"
        run_figures(["table1"], str(out), emit_json=True, **SCALE)
        service = make_service(tmp_path)
        status, body, _ = service.list_figures()
        assert status == 200
        states = {f["name"]: f["state"] for f in body["figures"]}
        assert set(states) == set(ARTIFACTS)
        assert states["table1"] == "warm"
        assert states["fig8"] == "cold"


class TestSweep:
    def test_sweep_without_store_is_400(self, tmp_path):
        service = make_service(tmp_path)
        status, body, _ = service.sweep(["gzip"], ["decrypt-only"])
        assert status == 400
        assert "store" in body["error"]

    def test_sweep_bad_policy_is_400(self, tmp_path, active):
        service = make_service(tmp_path, store=active)
        status, _, _ = service.sweep(["gzip"], ["no-such-policy"])
        assert status == 400

    def test_cold_sweep_warms_through_the_store(self, tmp_path, active):
        service = make_service(tmp_path, store=active)
        try:
            ask = lambda: service.sweep(["gzip"], ["decrypt-only"],
                                        num_instructions=600, warmup=300)
            status, body, _ = ask()
            assert status == 202
            assert body["misses"] == 1
            assert body["cells"][0]["status"] == "miss"
            assert body["retry_after"] == RETRY_AFTER_SECONDS
            deadline = time.monotonic() + 120.0
            while True:
                status, body, _ = ask()
                if status == 200:
                    break
                assert time.monotonic() < deadline
                time.sleep(0.05)
            cell = body["cells"][0]
            assert cell["status"] == "hit"
            assert cell["cycles"] > 0
            assert cell["ipc"] > 0
            assert body["misses"] == 0
            assert service.regenerations == 1
        finally:
            service.close()


class TestHealthAndMetrics:
    def test_health_reports_queue_and_warm_state(self, tmp_path):
        out = tmp_path / "serve-out"
        run_figures(["table1"], str(out), emit_json=True, **SCALE)
        service = make_service(tmp_path)
        status, body, _ = service.health()
        assert status == 200
        assert body["status"] == "ok"
        assert "table1" in body["warm_figures"]
        assert body["queue_depth"] == 0
        assert body["regenerations"] == 0
        assert body["store"] is None

    def test_metrics_exposition_counts_requests(self, tmp_path):
        metrics = MetricsRegistry()
        service = make_service(tmp_path, metrics=metrics)
        service.figure("fig99")
        status, text, ctype = service.metrics_text()
        assert status == 200
        assert ctype == TEXT_TYPE
        assert "repro_serve_requests_total" in text
        snapshot = metrics.snapshot()
        family = snapshot["families"]["repro_serve_requests_total"]
        assert {"endpoint": "figure", "status": "404"} in \
            [s["labels"] for s in family["samples"]]

    def test_no_registry_means_empty_exposition(self, tmp_path):
        service = make_service(tmp_path)
        status, text, _ = service.metrics_text()
        assert status == 200
        assert text == ""


@pytest.fixture
def server(tmp_path):
    """A live HTTP server whose regenerations are no-ops (no sims)."""
    service = make_service(tmp_path)
    service._regenerate = lambda key, payload: None
    httpd = make_server(service)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    base = "http://%s:%d" % httpd.server_address
    yield service, base
    httpd.shutdown()
    thread.join(timeout=10.0)
    httpd.server_close()
    service.close()


def _get(base, path):
    try:
        with urllib.request.urlopen(base + path, timeout=10) as resp:
            return resp.status, resp.read(), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read(), dict(exc.headers)


class TestHttp:
    def test_figures_listing_and_404_route(self, server):
        _, base = server
        status, body, _ = _get(base, "/figures")
        assert status == 200
        listing = json.loads(body)
        assert listing["kind"] == "figure-list"
        assert {f["name"] for f in listing["figures"]} == set(ARTIFACTS)
        status, _, _ = _get(base, "/nope")
        assert status == 404

    def test_warm_figure_bytes_are_served_verbatim(self, server):
        service, base = server
        payload = b'{\n "kind": "figure-series"\n}'
        with open(os.path.join(service.out_dir, "fig8.json"), "wb") as fh:
            fh.write(payload)
        status, body, headers = _get(base, "/figure/fig8")
        assert status == 200
        assert body == payload
        assert headers["Content-Type"] == JSON_TYPE

    def test_keep_alive_gets_do_not_wait_for_a_delayed_ack(self, server):
        """Twenty GETs on one connection: each answer leaves in one
        write on a TCP_NODELAY socket, so none waits ~40 ms for the
        client's delayed ACK (Nagle's algorithm would hold a second
        write back until it came)."""
        service, base = server
        payload = json.dumps({"kind": "figure-series",
                              "points": list(range(2000))}).encode()
        with open(os.path.join(service.out_dir, "fig8.json"), "wb") as fh:
            fh.write(payload)
        conn = http.client.HTTPConnection(base.split("//", 1)[1],
                                          timeout=10)
        try:
            start = time.perf_counter()
            for _ in range(20):
                conn.request("GET", "/figure/fig8")
                response = conn.getresponse()
                assert response.status == 200
                assert response.read() == payload
            elapsed = time.perf_counter() - start
        finally:
            conn.close()
        assert elapsed < 0.4

    def test_cold_figure_202_sets_retry_after_header(self, server):
        _, base = server
        status, body, headers = _get(base, "/figure/fig9")
        assert status == 202
        assert headers["Retry-After"] == str(RETRY_AFTER_SECONDS)
        assert json.loads(body)["status"] == "warming"

    def test_sweep_param_errors_are_400(self, server):
        _, base = server
        status, _, _ = _get(base, "/sweep?benchmark=gzip&policy=x&n=abc")
        assert status == 400
        status, _, _ = _get(base, "/sweep?benchmark=gzip&policy=x")
        assert status == 400  # no store attached

    def test_healthz_and_metricsz(self, server):
        _, base = server
        status, body, _ = _get(base, "/healthz")
        assert status == 200
        assert json.loads(body)["status"] == "ok"
        status, _, _ = _get(base, "/metricsz")
        assert status == 200


#: A fresh interpreter serves /healthz and a warm /figure/fig8 over
#: HTTP, then prints the status codes, whether the figure's body is the
#: artifact's bytes, and every module it must not have loaded.
_WARM_START = """
import http.client, os, sys, threading
from repro.exec.store import ArtifactStore
from repro.obs import MetricsRegistry
from repro.serve import FigureService, make_server

out, store = sys.argv[1:]
service = FigureService(out, store=ArtifactStore(store),
                        metrics=MetricsRegistry())
httpd = make_server(service)
threading.Thread(target=httpd.serve_forever, daemon=True).start()
conn = http.client.HTTPConnection(*httpd.server_address, timeout=30)
answers = []
for path in ("/healthz", "/figure/fig8"):
    conn.request("GET", path)
    response = conn.getresponse()
    answers.append((response.status, response.read()))
httpd.shutdown()
service.close()
with open(os.path.join(out, "fig8.json"), "rb") as handle:
    print([status for status, _ in answers], answers[1][1] == handle.read())
print(sorted(m for m in sys.modules
             if m.startswith(("repro.experiments.", "repro.func",
                              "repro.cpu.hierarchy", "repro.cpu.native"))))
"""


def test_a_warm_server_never_imports_the_simulator(tmp_path):
    """Serving warm figures loads no experiment driver, no functional
    machine, no legacy memory hierarchy and no kernel: only a
    regeneration imports them."""
    out = tmp_path / "out"
    run_figures(["fig8"], str(out), benchmarks=BENCHMARKS, jobs=1,
                emit_json=True, **SCALE)
    proc = subprocess.run(
        [sys.executable, "-c", _WARM_START, str(out),
         str(tmp_path / "store")], capture_output=True, text=True,
        timeout=120, env=repro_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[200, 200] True", "[]"]
