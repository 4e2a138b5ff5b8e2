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
import socketserver
import struct
import threading
import time
from collections import deque
from email.utils import formatdate
from http import HTTPStatus
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

# Each connection holds a handler thread; one over this many is answered 503
# and closed.
MAX_CONNECTIONS = 128

# A fetch that gets no answer for this long raises UpstreamUnreachable.
FETCH_TIMEOUT_SECONDS = 10.0

_SERVER_NAME = "replay-shield"

# The longest request line or header field read, and the most header fields,
# the limits of the standard library's HTTP server and client.
_MAX_LINE = 65536
_MAX_FIELDS = 100
# The only request header fields the server reads; the rest are skipped.
_KEPT_FIELDS = frozenset({"host", "connection", "content-length", "transfer-encoding"})
_REASONS = {status.value: status.phrase for status in HTTPStatus}
_BUSY = b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"

# Headers that describe one connection, not the message (RFC 9110 section 7.6.1);
# a relayed response drops them, along with any header its Connection names.
_HOP_BY_HOP = frozenset(
    {"connection", "keep-alive", "proxy-connection", "te", "trailer", "transfer-encoding", "upgrade"}
)

# The connection each thread fetched over last, kept open for its next fetch.
_kept = threading.local()


def split_hostport(address: str) -> tuple[str, int]:
    host, _, port = address.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"expected host:port, got {address!r}")
    return host, int(port)


def http_fetch(address: str, request: Request) -> Response:
    """Issue `request` to host:port `address`, over the connection this thread
    last fetched over when it goes there. Connection failure and a malformed
    answer raise UpstreamUnreachable so the proxy can answer 502."""
    conn = _take_kept(address)
    try:
        if conn is None:
            conn = _connection(address)
            raw = _exchange(conn, request)
        else:
            try:
                raw = _exchange(conn, request)
            except ConnectionError:
                # The upstream closed the kept connection before answering, so
                # it did not act on the request (RFC 9112 section 9.3.1).
                conn.close()
                conn = _connection(address)
                raw = _exchange(conn, request)
        response = Response(raw.status, _end_to_end_headers(raw.getheaders()), raw.read())
    except (OSError, http.client.HTTPException) as exc:
        conn.close()
        raise UpstreamUnreachable(str(exc)) from exc
    if raw.will_close:
        conn.close()
    else:
        _kept.conn = (address, conn)
    return response


def _connection(address: str) -> http.client.HTTPConnection:
    host, port = split_hostport(address)
    return http.client.HTTPConnection(host, port, timeout=FETCH_TIMEOUT_SECONDS)


def _exchange(conn: http.client.HTTPConnection, request: Request) -> http.client.HTTPResponse:
    conn.request(request.method, origin_form(request.url))
    return conn.getresponse()


def _take_kept(address: str | None) -> http.client.HTTPConnection | None:
    """This thread's kept connection if it goes to `address`; one that goes
    elsewhere is closed."""
    kept_address, conn = getattr(_kept, "conn", (None, None))
    _kept.conn = (None, None)
    if conn is not None and kept_address != address:
        conn.close()
        return None
    return conn


def _end_to_end_headers(headers: list[tuple[str, str]]) -> tuple[tuple[str, str], ...]:
    """`headers` without the hop-by-hop ones, which must not be relayed or cached."""
    dropped = _HOP_BY_HOP
    for name, value in headers:
        if name.lower() == "connection":
            dropped = dropped.union(token.strip().lower() for token in value.split(","))
    return tuple((name, value) for name, value in headers if name.lower() not in dropped)


class _WireServer(socketserver.ThreadingTCPServer):
    """A running listener that answers each connection on its own thread with
    `app`; shut it down with close()."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], app: Handler, echo: LogSink | None):
        super().__init__(address, _WireHandler)
        self.app = app
        self.echo = echo
        self.started = time.monotonic()
        self._log_lines: deque[str] = deque(maxlen=LOG_LINES_KEPT)
        self._log_lock = threading.Lock()
        # the connections a handler thread is serving: their number is the cap,
        # and close() shuts each down
        self._open: set[socket.socket] = set()
        self._open_lock = threading.Lock()
        name = f"wire-{self.server_address[1]}"
        self._thread = threading.Thread(target=self.serve_forever, args=(_SHUTDOWN_POLL_SECONDS,), name=name, daemon=True)
        self._thread.start()

    @property
    def address(self) -> str:
        host, port = self.server_address[:2]
        return f"{host}:{port}"

    @property
    def log_lines(self) -> list[str]:
        """The most recent LOG_LINES_KEPT request log lines, oldest first."""
        with self._log_lock:
            return list(self._log_lines)

    def record(self, line: str) -> None:
        with self._log_lock:
            self._log_lines.append(line)
        if self.echo is not None:
            self.echo(line)

    def process_request(self, request, client_address):
        # Runs on the accept loop, so a connection over the cap is refused
        # without waiting: close() must stay prompt. A connection whose thread
        # fails to start leaves the set through shutdown_request, which
        # socketserver calls on the error.
        with self._open_lock:
            busy = len(self._open) >= MAX_CONNECTIONS
            if not busy:
                self._open.add(request)
        if busy:
            try:
                request.sendall(_BUSY)  # a few bytes into an empty send buffer
            except OSError:
                pass
            self.shutdown_request(request)
            return
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        with self._open_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def close(self) -> None:
        """Stop accepting, then end the open keep-alive connections, so no
        client is answered by this server's app after close() returns: each
        handler thread reads end of stream, and its client finds the
        connection closed."""
        self.shutdown()
        with self._open_lock:
            for conn in self._open:
                try:
                    conn.shutdown(socket.SHUT_RDWR)
                except OSError:  # the client closed it already
                    pass
        self._thread.join(timeout=5)
        self.server_close()

    def __exit__(self, *exc) -> None:
        self.close()


class _WireHandler(socketserver.StreamRequestHandler):
    # A keep-alive client waits for each answer, so send it at once.
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

    def handle(self):
        try:
            while self._answer_one():
                pass
        except ConnectionError:  # the client went away mid-exchange
            pass

    def finish(self):
        try:
            super().finish()
        finally:
            _take_kept(None)  # closes the upstream connection this thread kept

    def _answer_one(self) -> bool:
        """Read one request and answer it; False once the connection is done."""
        line = self.rfile.readline(_MAX_LINE + 1)
        if not line:
            return False  # closed by the client, or idle past the timeout
        if len(line) > _MAX_LINE:
            return self._reject(414)
        words = line.decode("latin-1").split()
        if len(words) != 3 or words[2] not in ("HTTP/1.0", "HTTP/1.1"):
            return self._reject(400)
        method, target, version = words
        fields: dict[str, str] = {}
        for _ in range(_MAX_FIELDS + 1):
            field = self.rfile.readline(_MAX_LINE + 1)
            if not field:
                return False
            if field in (b"\r\n", b"\n"):
                break
            if len(field) > _MAX_LINE:
                return self._reject(431)
            name, _, value = field.decode("latin-1").partition(":")
            if name.lower() in _KEPT_FIELDS:
                fields[name.lower()] = value.strip()
        else:
            return self._reject(431)
        if method not in ("GET", "HEAD"):
            return self._reject(501)

        tokens = {token.strip() for token in fields.get("connection", "").lower().split(",")}
        keep_alive = "close" not in tokens if version == "HTTP/1.1" else "keep-alive" in tokens
        # The body is never read, so the stream cannot be trusted past it.
        if "transfer-encoding" in fields or fields.get("content-length", "0") != "0":
            keep_alive = False

        now = time.monotonic() - self.server.started
        host = fields.get("host") or "%s:%d" % self.server.server_address
        url = f"http://{host}{target}"
        try:
            response = self.server.app(Request(method, url), now)
        except Exception:  # a handler bug must not kill the connection thread
            _log.exception("handler failed on %s %s", method, url)
            response = Response(500, (("Content-Type", "text/plain"),), b"internal error")
        # logged before the response goes out, so a client that has its
        # response also finds the request in the log
        marker = response.header("X-Cache") or "-"
        self.server.record(f"{now:.3f} {method} {url} {response.status} {marker}")
        self._send(response, method == "HEAD", keep_alive)
        return keep_alive

    def _reject(self, status: int) -> bool:
        text = _REASONS[status].encode()
        self._send(Response(status, (("Content-Type", "text/plain"),), text), False, False)
        return False

    def _send(self, response: Response, head_only: bool, keep_alive: bool) -> None:
        lines = [f"HTTP/1.1 {response.status} {_REASONS.get(response.status, '')}"]
        present = set()
        for name, value in response.headers:
            present.add(name.lower())
            lines.append(f"{name}: {value}")
        # a relayed or cached response already carries the origin's Server and Date
        if "server" not in present:
            lines.append(f"Server: {_SERVER_NAME}")
        if "date" not in present:
            lines.append(f"Date: {formatdate(usegmt=True)}")
        if "content-length" not in present:
            lines.append(f"Content-Length: {len(response.body)}")
        if not keep_alive:
            lines.append("Connection: close")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        self.wfile.write(head if head_only else head + response.body)


def serve_handler(app: Handler, listen: str = "127.0.0.1:0", echo: LogSink | None = None) -> _WireServer:
    """Start `app` behind a threaded HTTP listener; port 0 picks a free port."""
    return _WireServer(split_hostport(listen), app, echo)
