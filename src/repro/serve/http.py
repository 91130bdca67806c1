"""stdlib HTTP skin over :class:`~repro.serve.service.FigureService`.

``ThreadingHTTPServer`` + ``BaseHTTPRequestHandler`` -- one daemon
thread per connection is plenty for a figure server whose hot path is
an ``open()`` + ``read()``.  The handler only routes and serialises;
every decision lives in the service, which is what the tests drive.
Each response leaves in one write on a ``TCP_NODELAY`` socket, so a
keep-alive client never waits for a delayed ACK (``docs/serving.md``,
"Latency").

Routes (GET only):

- ``/figures``            -- registry listing with warm/cold state
- ``/figure/<name>``      -- the per-figure JSON series artifact
  (``?format=txt`` for the text render); 202 + Retry-After while cold
- ``/sweep?benchmark=a,b&policy=x,y[&n=...&warmup=...&seed=...]``
  -- result-tier grid; 202 while misses regenerate
- ``/healthz``            -- liveness + queue/warm state
- ``/metricsz``           -- Prometheus text exposition
"""

from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro.serve.service import JSON_TYPE, dumps


def _csv(query, *names):
    """The first present query param among ``names``, split on commas."""
    for name in names:
        values = query.get(name)
        if values:
            return [part.strip() for part in ",".join(values).split(",")
                    if part.strip()]
    return []


def _int_param(query, name):
    values = query.get(name)
    if not values:
        return None
    return int(values[0])


def make_handler(service):
    """A request-handler class bound to ``service``."""

    class Handler(BaseHTTPRequestHandler):
        server_version = "repro-serve/1"
        protocol_version = "HTTP/1.1"
        disable_nagle_algorithm = True

        def log_message(self, format, *args):
            service.log("%s %s" % (self.address_string(),
                                   format % args))

        def _respond(self, status, body, content_type):
            if isinstance(body, dict):
                payload = (dumps(body) + "\n").encode()
            elif isinstance(body, str):
                payload = body.encode()
            else:
                payload = body
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(payload)))
            if status == 202:
                retry = (body.get("retry_after")
                         if isinstance(body, dict) else None)
                if retry:
                    self.send_header("Retry-After", str(retry))
            # end_headers() would send the header block on its own, and
            # the body after it as a second write; send both in one.
            if self.request_version != "HTTP/0.9":
                self._headers_buffer.append(b"\r\n")
                payload = b"".join(self._headers_buffer) + payload
                self._headers_buffer = []
            self.wfile.write(payload)

        def do_GET(self):
            parts = urlsplit(self.path)
            query = parse_qs(parts.query)
            try:
                self._route(parts.path, query)
            except (ValueError, TypeError) as exc:
                self._respond(400, {"error": str(exc)}, JSON_TYPE)
            except Exception as exc:  # never kill the connection thread
                self._respond(500, {"error": repr(exc)}, JSON_TYPE)

        def _route(self, path, query):
            if path == "/figures":
                self._respond(*service.list_figures())
            elif path.startswith("/figure/"):
                name = path[len("/figure/"):]
                fmt = query.get("format", ["json"])[0]
                self._respond(*service.figure(name, fmt))
            elif path == "/sweep":
                self._respond(*service.sweep(
                    _csv(query, "benchmark", "benchmarks"),
                    _csv(query, "policy", "policies"),
                    num_instructions=_int_param(query, "n"),
                    warmup=_int_param(query, "warmup"),
                    seed=_int_param(query, "seed")))
            elif path == "/healthz":
                self._respond(*service.health())
            elif path == "/metricsz":
                self._respond(*service.metrics_text())
            else:
                self._respond(404, {"error": "no route %r" % path},
                              JSON_TYPE)

    return Handler


def make_server(service, host="127.0.0.1", port=0):
    """A bound (not yet serving) server; ``port=0`` picks a free port."""
    return ThreadingHTTPServer((host, port), make_handler(service))


def serve_forever(service, host="127.0.0.1", port=8178, log=None):
    """Bind and serve until interrupted; closes the service on exit."""
    httpd = make_server(service, host, port)
    if log is not None:
        log("serving figures on http://%s:%d/ (artifacts: %s)"
            % (httpd.server_address[0], httpd.server_address[1],
               service.out_dir))
    try:
        httpd.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        httpd.server_close()
        service.close()
    return 0
