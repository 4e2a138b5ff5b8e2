"""Socket front end: HTTP/1.1 servers for the proxy and upstream roles, plus the
client used for proxy-to-upstream fetches.

Request handlers stay transport-agnostic: a handler is any
`(Request, seconds_since_start) -> Response` callable, so the same proxy and
simulator objects run in-process or behind a real listener.
"""

from __future__ import annotations

import http.client
import logging
import re
import socket
import socketserver
import struct
import threading
import time
from collections import deque
from email.utils import formatdate
from functools import lru_cache
from http import HTTPStatus
from typing import Callable, TextIO

from .httpmsg import Request, Response, origin_form, text_response
from .proxy import UpstreamUnreachable

Handler = Callable[[Request, float], Response]

_log = logging.getLogger(__name__)

# How often serve_forever checks for shutdown; close() waits up to this long,
# so serve_forever's own default of 0.5 s would add half a second per listener.
_SHUTDOWN_POLL_SECONDS = 0.05

# A connection that sends no request for this long is closed, so an idle
# keep-alive client cannot hold a handler thread forever.
IDLE_TIMEOUT_SECONDS = 60.0

# A server keeps its most recent request log lines for inspection; the full log
# goes to its log stream.
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
# A keep-alive client sends the same field block with every request, and a
# recurring answer's head changes only when its Age ticks, so the wire keeps
# the last few of each it worked out, as cache.CACHE_CONTROL_MEMO_SIZE does
# for Cache-Control values. Only a block or a head under MEMO_MAX_BYTES is
# kept, so both memos together hold under 1.5 MiB however hostile the traffic.
FIELDS_MEMO_SIZE = 64
HEAD_MEMO_SIZE = 64
MEMO_MAX_BYTES = 2048
# The largest body relayed from the upstream; a larger one is a 502, refused
# before it is read. Every body in the builtin scenarios and the bench is under
# a kilobyte, so only a broken or hostile upstream comes near it.
_MAX_BODY = 64 * 1024 * 1024
# A status line, a header field name (RFC 9110 section 5.1) and a chunk size
# line, extensions allowed (RFC 9112 sections 4 and 7.1.1).
_STATUS_LINE = re.compile(rb"HTTP/1\.([01]) ([1-9][0-9][0-9])(?: [^\r\n]*)?\r?\n")
_TOKEN = re.compile(r"[-!#$%&'*+.^_`|~0-9A-Za-z]+")
_CHUNK_SIZE = re.compile(rb"([0-9A-Fa-f]{1,16})[ \t]*(?:;[^\r\n]*)?\r?\n")
# A request target goes out only as visible ASCII (RFC 9112 section 3.2).
_UNSENDABLE = re.compile(r"[^\x21-\x7e]")
# A Host value or an absolute-form authority: an IP literal or a reg-name
# (RFC 3986 section 3.2.2), not empty (RFC 9110 section 4.2.1), then an
# optional port (RFC 9112 section 3.2). Two Host lines are read as one value
# joined with ", ", which never matches.
_HOST = re.compile(
    r"(?!:|$)(?:\[(?:[0-9A-Fa-f:.]+|v[0-9A-Fa-f]+\.[-\w.~!$&'()*+,;=:]+)\]"
    r"|[-\w.~!$&'()*+,;=]*(?:%[0-9A-Fa-f]{2}[-\w.~!$&'()*+,;=]*)*)(?::[0-9]*)?",
    re.ASCII,
)
# The start of an absolute-form request target, up to its authority.
_ABSOLUTE_FORM = re.compile(r"https?://([^/?#]*)", re.IGNORECASE)
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
    last fetched over when it goes there. Connection failure, a malformed
    answer and a target that cannot be sent raise UpstreamUnreachable so the
    proxy can answer 502."""
    target = origin_form(request.url)
    if _UNSENDABLE.search(target):
        raise UpstreamUnreachable(f"request target {target!r} cannot be sent")
    head = f"{request.method} {target} HTTP/1.1\r\nHost: {address}\r\nAccept-Encoding: identity\r\n\r\n"
    message = head.encode("ascii")
    conn = _take_kept(address)
    try:
        if conn is not None and not conn.answers(message):
            # The upstream closed the kept connection before answering, so
            # it did not act on the request (RFC 9112 section 9.3.1).
            conn.close()
            conn = None
        if conn is None:
            conn = _Upstream(address)
            conn.sock.sendall(message)
        response, will_close = _read_response(conn.rfile, request.method == "HEAD")
    except (OSError, _BadMessage) as exc:
        if conn is not None:
            conn.close()
        raise UpstreamUnreachable(str(exc)) from exc
    if will_close:
        conn.close()
    else:
        _kept.conn = (address, conn)
    return response


class _Upstream:
    """A connection to the upstream. http.client opens it, and this module
    frames each exchange on it."""

    def __init__(self, address: str):
        opener = http.client.HTTPConnection(*split_hostport(address), timeout=FETCH_TIMEOUT_SECONDS)
        opener.connect()
        self.sock = opener.sock
        self.rfile = self.sock.makefile("rb")

    def answers(self, message: bytes) -> bool:
        """Send `message` on this kept connection; False when the upstream
        closed it before the first byte of an answer."""
        try:
            self.sock.sendall(message)
            return bool(self.rfile.peek(1))
        except ConnectionError:
            return False

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


def _take_kept(address: str | None) -> _Upstream | None:
    """This thread's kept connection if it goes to `address`; one that goes
    elsewhere is closed."""
    kept_address, conn = getattr(_kept, "conn", (None, None))
    _kept.conn = (None, None)
    if conn is not None and kept_address != address:
        conn.close()
        return None
    return conn


class _BadMessage(Exception):
    """A message that breaks HTTP/1.1 framing or the reader's limits; `status`
    is the answer a server gives it."""

    def __init__(self, status: int, detail: str):
        super().__init__(detail)
        self.status = status


def _read_lines(rfile) -> tuple[bytes, ...]:
    """Read header field lines, as sent, up to the empty line that ends them.
    A line over _MAX_LINE or more than _MAX_FIELDS lines is a _BadMessage(431),
    and the stream ending first raises ConnectionError, unless a line before is
    malformed: that line is the _BadMessage(400) of _parse_fields."""
    lines = []
    for _ in range(_MAX_FIELDS + 1):
        line = rfile.readline(_MAX_LINE + 1)
        if line in (b"\r\n", b"\n"):
            return tuple(lines)
        if not line or len(line) > _MAX_LINE:
            _parse_fields(lines)
            if not line:
                raise ConnectionError("the stream ended inside a message head")
            raise _BadMessage(431, "header field too long")
        lines.append(line)
    _parse_fields(lines)
    raise _BadMessage(431, f"more than {_MAX_FIELDS} header fields")


def _parse_fields(lines) -> tuple[dict[str, str], list[tuple[str, str]]]:
    """Each field's value by lowercased name, repeated fields joined with ", "
    (RFC 9110 section 5.3), and the fields that are not hop-by-hop, in order
    and with their names as sent. A line that is not `name: value`, obs-fold
    included (RFC 9112 section 5.2), or a value with CR or NUL in it is a
    _BadMessage(400)."""
    fields: dict[str, str] = {}
    relayed: list[tuple[str, str]] = []
    for line in lines:
        name, colon, value = line.decode("latin-1").partition(":")
        value = value.strip(" \t\r\n")
        if not colon or not _TOKEN.fullmatch(name) or "\r" in value or "\0" in value:
            raise _BadMessage(400, f"malformed header field {line[:80]!r}")
        lowered = name.lower()
        fields[lowered] = f"{fields[lowered]}, {value}" if lowered in fields else value
        if lowered not in _HOP_BY_HOP:
            relayed.append((name, value))
    return fields, relayed


def _connection_tokens(fields: dict[str, str]) -> set[str]:
    connection = fields.get("connection")
    return {token.strip() for token in connection.lower().split(",")} if connection else set()


def _keep_alive(http11: bool, tokens: set[str]) -> bool:
    """Whether a message leaves its connection open (RFC 9112 section 9.3)."""
    return "close" not in tokens if http11 else "keep-alive" in tokens


def _read_response(rfile, head_only: bool) -> tuple[Response, bool]:
    """Read the answer to one request, skipping any 1xx interim answers: the
    final answer with its end-to-end headers, and whether the connection
    closes after it. A malformed answer raises _BadMessage."""
    while True:
        line = rfile.readline(_MAX_LINE + 1)
        parsed = _STATUS_LINE.fullmatch(line)
        if parsed is None or len(line) > _MAX_LINE:
            raise _BadMessage(502, f"bad status line {line[:80]!r}")
        status = int(parsed[2])
        fields, relayed = _parse_fields(_read_lines(rfile))
        if status >= 200:
            break
    tokens = _connection_tokens(fields)
    will_close = not _keep_alive(parsed[1] == b"1", tokens)
    named = tokens - {"", "close", "keep-alive"}
    if named:  # the fields Connection names describe this connection too
        relayed = [(name, value) for name, value in relayed if name.lower() not in named]

    length = fields.get("content-length")
    coding = fields.get("transfer-encoding")
    if head_only or status in (204, 304):
        body = b""
    elif coding is not None:
        if coding.lower() != "chunked" or length is not None:
            raise _BadMessage(502, f"unsupported framing: Transfer-Encoding {coding!r}")
        body = _read_chunked(rfile)
    elif length is not None:
        if not (length.isascii() and length.isdigit()):
            raise _BadMessage(502, f"bad Content-Length {length!r}")
        # 19 digits or more are over the limit, and int() refuses over 4300
        size = int(length) if len(length) < 19 else _MAX_BODY + 1
        if size > _MAX_BODY:
            raise _BadMessage(502, f"Content-Length {length[:20]} over the relay limit")
        body = rfile.read(size)
        if len(body) < size:
            raise _BadMessage(502, f"body ended after {len(body)} of {length} bytes")
    else:
        body = rfile.read(_MAX_BODY + 1)  # delimited by the end of the stream
        if len(body) > _MAX_BODY:
            raise _BadMessage(502, "body over the relay limit")
        will_close = True
    return Response(status, tuple(relayed), body), will_close


def _read_chunked(rfile) -> bytes:
    """A chunked body (RFC 9112 section 7.1), extensions and trailers dropped."""
    chunks = []
    total = 0
    while True:
        line = rfile.readline(_MAX_LINE + 1)
        sized = _CHUNK_SIZE.fullmatch(line)
        if sized is None:
            raise _BadMessage(502, f"bad chunk size line {line[:80]!r}")
        size = int(sized[1], 16)
        total += size
        if total > _MAX_BODY:
            raise _BadMessage(502, "chunked body over the relay limit")
        if size == 0:
            _parse_fields(_read_lines(rfile))
            return b"".join(chunks)
        chunk = rfile.read(size + 2)
        if len(chunk) < size + 2 or not chunk.endswith(b"\r\n"):
            raise _BadMessage(502, "chunk shorter than its size")
        chunks.append(chunk[:size])


class _WireServer(socketserver.ThreadingTCPServer):
    """A running listener that answers each connection on its own thread with
    `app`; shut it down with close()."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], app: Handler, log: TextIO | None):
        super().__init__(address, _WireHandler)
        self.app = app
        self.log = log
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
        # One write per record, so records from concurrent handler threads
        # cannot run together; flushed so the log does not lag the traffic.
        with self._log_lock:
            self._log_lines.append(line)
            if self.log is not None:
                self.log.write(line + "\n")
                self.log.flush()

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
        # a target that is not visible ASCII could not be forwarded (RFC 9112 section 3.2)
        if len(words) != 3 or words[2] not in ("HTTP/1.0", "HTTP/1.1") or _UNSENDABLE.search(words[1]):
            return self._reject(400)
        method, target, version = words
        # an HTTP/1.0 request without a Host names this server
        own = "%s:%d" % self.server.server_address if version == "HTTP/1.0" else ""
        try:
            host, keep_alive = _read_request_fields(self.rfile, version, own)
        except _BadMessage as exc:
            return self._reject(exc.status)
        if method not in ("GET", "HEAD"):
            return self._reject(501)
        url = _request_url(target, host)
        if url is None:
            return self._reject(400)

        now = time.monotonic() - self.server.started
        try:
            response = self.server.app(Request(method, url), now)
        except Exception:  # a handler bug must not kill the connection thread
            _log.exception("handler failed on %s %s", method, url)
            response = text_response(500, "internal error")
        head, marker = _response_head(response, keep_alive)
        # logged before the response goes out, so a client that has its
        # response also finds the request in the log
        self.server.record(f"{now:.3f} {method} {url} {response.status} {marker}")
        self.connection.sendall(head if method == "HEAD" else head + response.body)
        return keep_alive

    def _reject(self, status: int) -> bool:
        response = text_response(status, _REASONS[status])
        head, _ = _response_head(response, False)
        self.connection.sendall(head + response.body)
        return False


def _read_request_fields(rfile, version: str, own: str) -> tuple[str | None, bool]:
    """Read a request's field lines and work out _request_fields from them,
    through its memo when the block is under MEMO_MAX_BYTES."""
    lines = _read_lines(rfile)
    read = _request_fields if sum(map(len, lines)) < MEMO_MAX_BYTES else _request_fields.__wrapped__
    return read(lines, version, own)


@lru_cache(maxsize=FIELDS_MEMO_SIZE)
def _request_fields(lines: tuple[bytes, ...], version: str, own: str) -> tuple[str | None, bool]:
    """What a server reads from a request's field lines: the Host its URL goes
    under, None when that is not a valid Host, and whether the connection stays
    open after the answer. `own` is the server's address for an HTTP/1.0
    request, which names it by sending no Host, and empty otherwise. A
    malformed line is a _BadMessage(400), which the memo does not keep."""
    fields, _ = _parse_fields(lines)
    # HTTP/1.1 requires a Host (RFC 9112 section 3.2); an empty one never matches
    host = fields.get("host", own)
    keep_alive = _keep_alive(version == "HTTP/1.1", _connection_tokens(fields))
    # The body is never read, so the stream cannot be trusted past it.
    if "transfer-encoding" in fields or fields.get("content-length", "0") != "0":
        keep_alive = False
    return (host if _HOST.fullmatch(host) else None), keep_alive


def _request_url(target: str, host: str | None) -> str | None:
    """The URL a request names (RFC 9112 section 3.2): an origin-form target
    under `host`, or an absolute-form target as it is. None when there is no
    valid `host`, or the target is neither form or names no valid authority."""
    if host is None:
        return None
    if target.startswith("/"):
        return f"http://{host}{target}"
    absolute = _ABSOLUTE_FORM.match(target)
    if absolute is None or not _HOST.fullmatch(absolute[1]):
        return None
    return target


class _Unkept(Exception):
    """Carries a head out of _kept_head that its memo must not keep: lru_cache
    stores no entry for a call that raises."""


def _encode_head(status: int, headers: tuple[tuple[str, str], ...], length: int,
                 keep_alive: bool) -> tuple[bytes, str, bool]:
    """A response's head as sent, the X-Cache marker of its log line ("-"
    without one), and whether the response carries its own Date."""
    lines = [f"HTTP/1.1 {status} {_REASONS.get(status, '')}"]
    present = set()
    marker = None
    for name, value in headers:
        lowered = name.lower()
        if lowered == "x-cache" and marker is None:
            marker = value
        present.add(lowered)
        lines.append(f"{name}: {value}")
    # a relayed or cached response already carries the origin's Server and Date
    if "server" not in present:
        lines.append(f"Server: {_SERVER_NAME}")
    dated = "date" in present
    if not dated:
        lines.append(f"Date: {formatdate(usegmt=True)}")
    if "content-length" not in present:
        lines.append(f"Content-Length: {length}")
    if not keep_alive:
        lines.append("Connection: close")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head, marker or "-", dated


@lru_cache(maxsize=HEAD_MEMO_SIZE)
def _kept_head(status: int, headers: tuple[tuple[str, str], ...], length: int, keep_alive: bool) -> tuple[bytes, str]:
    """_encode_head, kept for a response with its own Date and a head under
    MEMO_MAX_BYTES; any other raises _Unkept with the head and the marker, so
    a response without a Date gets a new one on every send."""
    head, marker, dated = _encode_head(status, headers, length, keep_alive)
    if not dated or len(head) >= MEMO_MAX_BYTES:
        raise _Unkept(head, marker)
    return head, marker


def _response_head(response: Response, keep_alive: bool) -> tuple[bytes, str]:
    """The head `response` goes out with and the X-Cache marker of its log line."""
    try:
        return _kept_head(response.status, response.headers, len(response.body), keep_alive)
    except _Unkept as unkept:
        return unkept.args


def serve_handler(app: Handler, listen: str = "127.0.0.1:0", log: TextIO | None = None) -> _WireServer:
    """Start `app` behind a threaded HTTP listener; port 0 picks a free port.
    Each request's log line also goes to the text stream `log`, when given."""
    return _WireServer(split_hostport(listen), app, log)
