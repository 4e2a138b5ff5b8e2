"""Socket front end: HTTP/1.1 servers for the proxy and upstream roles, plus the
client used for proxy-to-upstream fetches.

Request handlers stay transport-agnostic: a handler is any
`(Request, seconds_since_start) -> Response` callable, so the same proxy and
simulator objects run in-process or behind a real listener.
"""

from __future__ import annotations

import http.client
import logging
import socket
import struct
import threading
import time
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable

from .httpmsg import Request, Response, origin_form
from .proxy import UpstreamUnreachable

Handler = Callable[[Request, float], Response]
LogSink = Callable[[str], None]

_log = logging.getLogger(__name__)

# How often serve_forever checks for shutdown; close() waits up to this long,
# so serve_forever's own default of 0.5 s would add half a second per listener.
_SHUTDOWN_POLL_SECONDS = 0.05

# A connection that sends no request for this long is closed, so an idle
# keep-alive client cannot hold a handler thread forever.
IDLE_TIMEOUT_SECONDS = 60.0

# A server keeps its most recent request log lines for inspection; the full log
# goes to the echo sink.
LOG_LINES_KEPT = 1000

# Headers that describe one connection, not the message (RFC 9110 section 7.6.1);
# a relayed response drops them, along with any header its Connection names.
_HOP_BY_HOP = frozenset(
    {"connection", "keep-alive", "proxy-connection", "te", "trailer", "transfer-encoding", "upgrade"}
)


def split_hostport(address: str) -> tuple[str, int]:
    host, _, port = address.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"expected host:port, got {address!r}")
    return host, int(port)


def http_fetch(address: str, request: Request, timeout: float = 10.0) -> Response:
    """Issue `request` to host:port `address`; connection failure raises
    UpstreamUnreachable so the proxy can answer 502."""
    host, port = split_hostport(address)
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request(request.method, origin_form(request.url))
        raw = conn.getresponse()
        body = raw.read()
        return Response(raw.status, _end_to_end_headers(raw.getheaders()), body)
    except OSError as exc:
        raise UpstreamUnreachable(str(exc)) from exc
    finally:
        conn.close()


def _end_to_end_headers(headers: list[tuple[str, str]]) -> tuple[tuple[str, str], ...]:
    """`headers` without the hop-by-hop ones, which must not be relayed or cached."""
    dropped = _HOP_BY_HOP
    for name, value in headers:
        if name.lower() == "connection":
            dropped = dropped.union(token.strip().lower() for token in value.split(","))
    return tuple((name, value) for name, value in headers if name.lower() not in dropped)


class _WireServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, address, handler_cls, app: Handler, echo: LogSink | None):
        super().__init__(address, handler_cls)
        self.app = app
        self.echo = echo
        self.started = time.monotonic()
        self.log_lines: deque[str] = deque(maxlen=LOG_LINES_KEPT)
        self._log_lock = threading.Lock()

    def record(self, line: str) -> None:
        with self._log_lock:
            self.log_lines.append(line)
        if self.echo is not None:
            self.echo(line)


class _WireHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Responses go out as a head write plus a body write; with Nagle on, the
    # body waits for a keep-alive client's delayed ACK of the head (~40 ms).
    disable_nagle_algorithm = True
    server: _WireServer

    def setup(self):
        super().setup()
        # A kernel receive timeout: the wait for a request ends in an empty read,
        # which closes the connection. The stdlib `timeout` attribute would poll
        # before every send and recv instead, a cost paid on each request.
        seconds, fraction = divmod(IDLE_TIMEOUT_SECONDS, 1)
        timeval = struct.pack("ll", int(seconds), int(fraction * 1_000_000))
        self.connection.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, timeval)

    def do_GET(self):
        self._run("GET")

    def do_HEAD(self):
        self._run("HEAD")

    def _run(self, method: str) -> None:
        now = time.monotonic() - self.server.started
        host = self.headers.get("Host") or "%s:%d" % self.server.server_address
        url = f"http://{host}{self.path}"
        request = Request(method, url)
        try:
            response = self.server.app(request, now)
        except Exception:  # a handler bug must not kill the connection thread
            _log.exception("handler failed on %s %s", method, url)
            response = Response(500, (("Content-Type", "text/plain"),), b"internal error")
        # logged before the response goes out, so a client that has its
        # response also finds the request in the log
        marker = response.header("X-Cache") or "-"
        self.server.record(f"{now:.3f} {method} {url} {response.status} {marker}")
        self.send_response_only(response.status)
        present = set()
        for name, value in response.headers:
            present.add(name.lower())
            self.send_header(name, value)
        # a relayed or cached response already carries the origin's Server and Date
        if "server" not in present:
            self.send_header("Server", self.version_string())
        if "date" not in present:
            self.send_header("Date", self.date_time_string())
        if "content-length" not in present:
            self.send_header("Content-Length", str(len(response.body)))
        self.end_headers()
        if method != "HEAD" and response.body:
            self.wfile.write(response.body)

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass


class ServerHandle:
    """A running listener; shut it down with close()."""

    def __init__(self, server: _WireServer, thread: threading.Thread):
        self._server = server
        self._thread = thread

    @property
    def address(self) -> str:
        host, port = self._server.server_address[:2]
        return f"{host}:{port}"

    @property
    def log_lines(self) -> list[str]:
        """The most recent LOG_LINES_KEPT request log lines, oldest first."""
        with self._server._log_lock:
            return list(self._server.log_lines)

    def close(self) -> None:
        self._server.shutdown()
        self._thread.join(timeout=5)
        self._server.server_close()

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def serve_handler(app: Handler, listen: str = "127.0.0.1:0", echo: LogSink | None = None) -> ServerHandle:
    """Start `app` behind a threaded HTTP listener; port 0 picks a free port."""
    host, port = split_hostport(listen)
    server = _WireServer((host, port), _WireHandler, app, echo)
    name = f"wire-{server.server_address[1]}"
    thread = threading.Thread(target=server.serve_forever, args=(_SHUTDOWN_POLL_SECONDS,), name=name, daemon=True)
    thread.start()
    return ServerHandle(server, thread)
