"""Live-socket layer: servers, proxy-to-upstream fetches, request logs."""

from __future__ import annotations

import email.utils
import http.client
import io
import itertools
import logging
import random
import re
import socket
import socketserver
import struct
import threading
import time
import tracemalloc

import pytest

from replay_shield import wire
from replay_shield.cache import CachePolicy, KeyMode
from replay_shield.httpmsg import Request, Response
from replay_shield.proxy import InjectionMode, ProxyConfig, ProxyMetrics, ReverseProxy, ThrottleConfig, UpstreamUnreachable
from replay_shield.upstream import MementoStore, PatchConfig, UpstreamSimulator, parse_manifest_text
from replay_shield.wire import LOG_LINES_KEPT, http_fetch, origin_form, serve_handler, split_hostport
from replay_shield.workload import PageSpec, run_page

MANIFEST = (
    "20090628044051\t200\timage/png\thttp://site.pt/ok.png\tinline:pngbytes\n"
    "20090628044051\t404\t-\thttp://site.pt/gone.png\tinline:\n"
)


def make_sim() -> UpstreamSimulator:
    return UpstreamSimulator(parse_manifest_text(MANIFEST))


def client_get(address: str, path: str):
    host, port = address.split(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=5)
    try:
        conn.request("GET", path)
        raw = conn.getresponse()
        return raw.status, dict(raw.getheaders()), raw.read()
    finally:
        conn.close()


class TestServer:
    def test_upstream_serves_stored_capture(self):
        with serve_handler(make_sim().serve) as handle:
            status, headers, body = client_get(handle.address, "/wayback/20090628044051im_/http://site.pt/ok.png")
            assert status == 200
            assert body == b"pngbytes"
            assert headers["Memento-Datetime"] == "Sun, 28 Jun 2009 04:40:51 GMT"

    def test_request_log_line_format(self):
        sim = make_sim()
        with serve_handler(sim.serve) as handle:
            client_get(handle.address, "/wayback/20090628044051/http://site.pt/gone.png")
            (line,) = handle.log_lines
            t, method, url, status, marker = line.split(" ")
            assert method == "GET"
            assert status == "404"
            assert marker == "-"
            assert float(t) >= 0.0

    def test_head_request(self):
        with serve_handler(make_sim().serve) as handle:
            host, port = handle.address.split(":")
            conn = http.client.HTTPConnection(host, int(port), timeout=5)
            try:
                conn.request("HEAD", "/wayback/20090628044051im_/http://site.pt/ok.png")
                raw = conn.getresponse()
                assert raw.status == 200
                assert raw.read() == b""
            finally:
                conn.close()

    def test_idle_connection_closed_after_timeout(self, monkeypatch):
        monkeypatch.setattr(wire, "IDLE_TIMEOUT_SECONDS", 0.3)
        with serve_handler(make_sim().serve) as handle:
            host, port = handle.address.split(":")
            with socket.create_connection((host, int(port)), timeout=5) as idle:
                start = time.monotonic()
                assert idle.recv(1) == b""  # the server closed it
                assert 0.25 <= time.monotonic() - start < 5

    def test_busy_keep_alive_connection_outlives_timeout(self, monkeypatch):
        monkeypatch.setattr(wire, "IDLE_TIMEOUT_SECONDS", 0.3)
        with serve_handler(make_sim().serve) as handle:
            host, port = handle.address.split(":")
            conn = http.client.HTTPConnection(host, int(port), timeout=5)
            try:
                conn.connect()
                sock = conn.sock
                for _ in range(6):  # 0.6 s in all, each gap shorter than the timeout
                    time.sleep(0.1)
                    conn.request("GET", "/wayback/20090628044051im_/http://site.pt/ok.png")
                    raw = conn.getresponse()
                    assert (raw.status, raw.read()) == (200, b"pngbytes")
                assert conn.sock is sock
            finally:
                conn.close()


class TestProxyOverSockets:
    def test_three_requests_one_upstream_line(self):
        sim = make_sim()
        with serve_handler(sim.serve) as upstream:
            proxy = ReverseProxy(ProxyConfig(), lambda req: http_fetch(upstream.address, req))
            with serve_handler(proxy.handle_request) as front:
                path = "/wayback/20090628044051im_/http://site.pt/gone.png"
                results = [client_get(front.address, path) for _ in range(3)]
                for status, headers, _ in results:
                    assert status == 404
                    assert headers["Cache-Control"] == "public, max-age=600"
                assert [h["X-Cache"] for _, h, _ in results] == ["MISS", "HIT", "HIT"]
                upstream_hits = [l for l in upstream.log_lines if "gone.png" in l]
                assert len(upstream_hits) == 1

    def test_ip_literal_host_and_absolute_form_target_served(self):
        path = "/wayback/20090628044051im_/http://site.pt/ok.png"
        with serve_handler(make_sim().serve) as upstream:
            proxy = ReverseProxy(ProxyConfig(), lambda req: http_fetch(upstream.address, req))
            with serve_handler(proxy.handle_request) as front:
                port = split_hostport(front.address)[1]
                literal = raw_exchange(front.address, f"GET {path} HTTP/1.1\r\nHost: [::1]:{port}\r\nConnection: close\r\n\r\n".encode())
                absolute = f"GET http://{front.address}{path} HTTP/1.1\r\nHost: {front.address}\r\n".encode()
                repeated = raw_exchange(front.address, absolute + b"\r\n" + absolute + b"Connection: close\r\n\r\n")
                front_urls = [line.split(" ")[2] for line in front.log_lines]
        assert status_lines(literal) == [b"HTTP/1.1 200 OK"]
        assert status_lines(repeated) == [b"HTTP/1.1 200 OK"] * 2
        assert re.findall(rb"\r\nX-Cache: (\w+)", repeated) == [b"MISS", b"HIT"]
        assert front_urls == [f"http://[::1]:{port}{path}"] + [f"http://{front.address}{path}"] * 2
        assert proxy.metrics_snapshot().upstream_requests == 2

    def test_unreachable_upstream_gives_502(self):
        proxy = ReverseProxy(ProxyConfig(), lambda req: http_fetch("127.0.0.1:1", req))
        with serve_handler(proxy.handle_request) as front:
            status, _, _ = client_get(front.address, "/anything")
            assert status == 502

    def test_keep_alive_framing_across_responses(self):
        # One persistent connection carries a miss, a HEAD, a hit and the
        # metrics page; each response must be framed so the next one parses.
        sim = make_sim()
        with serve_handler(sim.serve) as upstream:
            proxy = ReverseProxy(ProxyConfig(), lambda req: http_fetch(upstream.address, req))
            with serve_handler(proxy.handle_request) as front:
                host, port = front.address.split(":")
                conn = http.client.HTTPConnection(host, int(port), timeout=5)
                path = "/wayback/20090628044051im_/http://site.pt/ok.png"
                try:
                    conn.connect()
                    sock = conn.sock
                    steps = (("GET", "MISS", b"pngbytes"), ("HEAD", "HIT", b""), ("GET", "HIT", b"pngbytes"))
                    for method, marker, expected in steps:
                        conn.request(method, path)
                        raw = conn.getresponse()
                        head = (raw.status, raw.getheader("Content-Length"), raw.getheader("X-Cache"))
                        assert head == (200, "8", marker), method
                        assert raw.read() == expected, method

                    conn.request("GET", "/__metrics")
                    raw = conn.getresponse()
                    body = raw.read()
                    assert raw.status == 200
                    assert raw.getheader("X-Cache") is None
                    assert raw.getheader("Content-Length") == str(len(body))
                    lines = body.decode().splitlines()
                    assert {"client_requests 3", "cache_hits_fresh 2", "upstream_requests 1"} <= set(lines)
                    assert conn.sock is sock  # never reconnected
                finally:
                    conn.close()

    def test_server_date_and_length_sent_once(self):
        sim = make_sim()
        with serve_handler(sim.serve) as upstream:
            proxy = ReverseProxy(ProxyConfig(), lambda req: http_fetch(upstream.address, req))
            with serve_handler(proxy.handle_request) as front:
                host, port = front.address.split(":")
                conn = http.client.HTTPConnection(host, int(port), timeout=5)
                try:
                    for marker in ("MISS", "HIT"):
                        conn.request("GET", "/wayback/20090628044051im_/http://site.pt/gone.png")
                        raw = conn.getresponse()
                        raw.read()
                        assert raw.getheader("X-Cache") == marker
                        names = [name.lower() for name, _ in raw.getheaders()]
                        for name in ("server", "date", "content-length"):
                            assert names.count(name) == 1, (marker, name, names)
                finally:
                    conn.close()

    def test_hit_carries_one_age_and_miss_none(self):
        sim = make_sim()
        with serve_handler(sim.serve) as upstream:
            proxy = ReverseProxy(ProxyConfig(), lambda req: http_fetch(upstream.address, req))
            with serve_handler(proxy.handle_request) as front:
                host, port = front.address.split(":")
                conn = http.client.HTTPConnection(host, int(port), timeout=5)
                try:
                    for marker, ages in (("MISS", 0), ("HIT", 1)):
                        conn.request("GET", "/wayback/20090628044051im_/http://site.pt/gone.png")
                        raw = conn.getresponse()
                        raw.read()
                        assert raw.getheader("X-Cache") == marker
                        names = [name.lower() for name, _ in raw.getheaders()]
                        assert names.count("age") == ages, (marker, names)
                    assert raw.getheader("Age").isdigit()
                finally:
                    conn.close()

    def test_hit_shape_over_the_wire(self):
        origin = (("Content-Type", "text/html"), ("Age", "5"), ("ETag", '"v1"'), ("X-Cache", "MISS"), ("Link", "<a>"))
        with serve_handler(lambda request, now: Response(404, origin, b"gone")) as upstream:
            proxy = ReverseProxy(ProxyConfig(), lambda req: http_fetch(upstream.address, req))
            with serve_handler(proxy.handle_request) as front:
                host, port = front.address.split(":")
                conn = http.client.HTTPConnection(host, int(port), timeout=5)
                try:
                    answers = []
                    for _ in range(2):
                        conn.request("GET", "/wayback/20090628044051im_/http://site.pt/gone.png")
                        raw = conn.getresponse()
                        raw.read()
                        answers.append(raw.getheaders())
                finally:
                    conn.close()
        miss, hit = answers
        names = [name.lower() for name, _ in hit]
        assert (names.count("age"), names.count("x-cache")) == (1, 1)
        assert dict(hit)["X-Cache"] == "HIT" and int(dict(hit)["Age"]) >= 5

        # the upstream's Server, Date and Content-Length are relayed and stored too
        end_to_end = [field for field in hit if field[0] not in ("Age", "X-Cache")]
        assert end_to_end == [field for field in miss if field[0] not in ("Age", "X-Cache")]
        assert [name for name, _ in end_to_end][:3] == ["Content-Type", "ETag", "Link"]

    @pytest.mark.parametrize("lines", [(b"public", b"no-store"), (b"max-age=60", b"private")])
    def test_cache_control_on_a_second_field_line_counts(self, lines):
        head = b"HTTP/1.1 404 Not Found\r\nContent-Length: 4\r\n"
        answer = head + b"".join(b"Cache-Control: %s\r\n" % line for line in lines) + b"\r\ngone"
        with socket.create_server(("127.0.0.1", 0)) as listener:
            servers = [one_shot_upstream(listener, answer) for _ in range(2)]
            address = "127.0.0.1:%d" % listener.getsockname()[1]
            proxy = ReverseProxy(ProxyConfig(injection_mode=InjectionMode.OFF), lambda req: http_fetch(address, req))
            with serve_handler(proxy.handle_request) as front:
                path = "/wayback/20090628044051im_/http://site.pt/gone.png"
                markers = [client_get(front.address, path)[1]["X-Cache"] for _ in range(2)]
            for server in servers:
                server.join(5)
        assert markers == ["MISS", "MISS"]
        assert proxy.metrics_snapshot().upstream_requests == 2
        assert len(proxy.cache) == 0

    @pytest.mark.parametrize(
        "field",
        [b"Age: " + b"9" * 5000, b"Expires: Thu, 01 Jan 99999 00:00:00 GMT\r\nDate: Mon, 19 Oct 2026 10:00:00 GMT"],
        ids=["age-5000-digits", "expires-year-99999"],
    )
    def test_a_freshness_field_past_its_range_is_a_counted_answer(self, caplog, field):
        answer = b"HTTP/1.1 404 Not Found\r\nContent-Length: 4\r\n" + field + b"\r\n\r\ngone"
        with socket.create_server(("127.0.0.1", 0)) as listener:
            server = one_shot_upstream(listener, answer)
            address = "127.0.0.1:%d" % listener.getsockname()[1]
            proxy = ReverseProxy(ProxyConfig(injection_mode=InjectionMode.OFF), lambda req: http_fetch(address, req))
            with serve_handler(proxy.handle_request) as front:
                status, headers, body = client_get(front.address, "/x")
            server.join(5)
        assert (status, headers["X-Cache"], body) == (404, "MISS", b"gone")
        assert [r for r in caplog.records if r.levelno >= logging.ERROR] == []
        m = proxy.metrics_snapshot()
        assert (m.client_requests, m.upstream_requests, m.responses_by_status) == (1, 1, {404: 1})
        # stored, and stale from the start
        assert len(proxy.cache) == 1

    @pytest.mark.parametrize("key_mode", [KeyMode.CANONICAL, KeyMode.FUZZY])
    def test_host_with_a_port_past_int_digits_is_its_own_key(self, caplog, key_mode):
        # the wire takes ASCII port digits only, and int() reads no more than 4,300
        head = b"GET /x HTTP/1.1\r\nHost: a:" + b"9" * 5000 + b"\r\nConnection: close\r\n\r\n"
        with serve_handler(make_sim().serve) as upstream:
            policy = CachePolicy(key_mode=key_mode)
            proxy = ReverseProxy(ProxyConfig(policy=policy), lambda req: http_fetch(upstream.address, req))
            with serve_handler(proxy.handle_request) as front:
                answers = [raw_exchange(front.address, head) for _ in range(2)]
        assert [line for answer in answers for line in status_lines(answer)] == [b"HTTP/1.1 404 Not Found"] * 2
        assert [re.search(rb"\r\nX-Cache: (\w+)", answer)[1] for answer in answers] == [b"MISS", b"HIT"]
        assert [r for r in caplog.records if r.levelno >= logging.ERROR] == []
        m = proxy.metrics_snapshot()
        assert (m.client_requests, m.upstream_requests, m.cache_hits_fresh) == (2, 1, 1)

    def test_handler_exception_logged_and_answered_500(self, caplog):
        def app(request, now):
            if request.url.endswith("/boom"):
                raise RuntimeError("handler bug")
            return Response(200, (), b"ok")

        with serve_handler(app) as handle:
            host, port = handle.address.split(":")
            conn = http.client.HTTPConnection(host, int(port), timeout=5)
            try:
                with caplog.at_level(logging.ERROR, logger="replay_shield.wire"):
                    conn.request("GET", "/boom")
                    raw = conn.getresponse()
                    assert (raw.status, raw.read()) == (500, b"internal error")
                sock = conn.sock
                conn.request("GET", "/fine")
                raw = conn.getresponse()
                assert (raw.status, raw.read()) == (200, b"ok")
                assert conn.sock is sock  # the connection kept working
            finally:
                conn.close()
        (record,) = [r for r in caplog.records if r.name == "replay_shield.wire"]
        assert "/boom" in record.getMessage()
        assert record.exc_info is not None and record.exc_info[0] is RuntimeError
        assert "RuntimeError: handler bug" in caplog.text
    def test_metrics_endpoint_over_wire(self):
        sim = make_sim()
        with serve_handler(sim.serve) as upstream:
            proxy = ReverseProxy(ProxyConfig(), lambda req: http_fetch(upstream.address, req))
            with serve_handler(proxy.handle_request) as front:
                client_get(front.address, "/wayback/20090628044051im_/http://site.pt/ok.png")
                status, _, body = client_get(front.address, "/__metrics")
                assert status == 200
                assert b"upstream_requests 1" in body


def raw_exchange(address: str, data: bytes) -> bytes:
    """Send `data` on a new connection and read until the server closes it."""
    with socket.create_connection(split_hostport(address), timeout=5) as sock:
        sock.sendall(data)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def status_lines(answer: bytes) -> list[bytes]:
    return re.findall(rb"HTTP/1\.1 \d{3} [^\r]*", answer)


def one_shot_upstream(listener: socket.socket, answer: bytes) -> threading.Thread:
    """A started thread that takes one connection on `listener`, reads a
    request, sends `answer` and closes."""
    def answer_once():
        conn, _ = listener.accept()
        with conn:
            conn.recv(65536)
            conn.sendall(answer)

    server = threading.Thread(target=answer_once, daemon=True)
    server.start()
    return server


def fetch_from_one_shot_upstream(answer: bytes):
    """A GET through a proxy whose upstream answers it with `answer`; returns
    the proxy's response and its metrics."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        server = one_shot_upstream(listener, answer)
        address = "127.0.0.1:%d" % listener.getsockname()[1]
        proxy = ReverseProxy(ProxyConfig(), lambda req: http_fetch(address, req))
        try:
            response = proxy.handle_request(Request("GET", "http://a.test/x"), 0.0)
        finally:
            wire._take_kept(None)
        server.join(5)
    assert not server.is_alive()
    return response, proxy.metrics_snapshot()


# The fields of an HTTP/1.1 request with no valid Host, by test id: an empty
# Host, one that is not an IP literal or a reg-name with an optional port, or
# none at all (RFC 9112 section 3.2)
REFUSED_HOSTS = {
    b"X-Other: 1": "no-host",
    b"Host: ": "empty-host",
    b"Host: [::1": "unclosed-ip-literal",
    b"Host: h/evil": "host-with-path",
    b"Host: h?q=": "host-with-query",
    b"Host: h@evil": "host-with-userinfo",
    b"Host: h:8o": "host-with-bad-port",
    b"Host: :80": "port-without-host",
    b"Host: a\r\nHost: b": "two-hosts",
}
# targets that are neither origin-form nor absolute-form with a valid authority
REFUSED_TARGETS = {
    b"x": "relative-target",
    b"@evil.test/x": "userinfo-target",
    b"ftp://h/x": "ftp-target",
    b"http:///x": "no-authority",
    b"http://:80/x": "port-without-authority-host",
    b"http://u@h/x": "userinfo-authority",
    b"http://[::1/x": "unclosed-ip-literal-authority",
}


class TestRequestGates:
    """Requests the server will not read are answered once, then the connection closes."""

    @pytest.fixture
    def server(self):
        """The listener's address and the requests its app was called with."""
        seen = []
        with serve_handler(lambda request, now: seen.append(request) or Response(200, (), b"ok")) as handle:
            yield handle.address, seen

    @pytest.mark.parametrize(
        "head, status",
        [
            (b"GET /" + b"a" * 65536 + b" HTTP/1.1\r\n\r\n", b"414"),
            (b"GET / HTTP/1.1\r\n" + b"X-Filler: 1\r\n" * 101 + b"\r\n", b"431"),
            (b"GET / HTTP/1.1\r\nX-Long: " + b"a" * 65536 + b"\r\n\r\n", b"431"),
            (b"GET /\r\n\r\n", b"400"),
            (b"GET / HTTP/1.1 extra\r\n\r\n", b"400"),
            (b"GET / HTTX/1.1\r\n\r\n", b"400"),
            (b"GET / HTTP/1.1\r\nHost: x\r\nX-Long: a\r\n b\r\n\r\n", b"400"),
            (b"GET / HTTP/1.1\r\nHost x\r\n\r\n", b"400"),
            (b"POST / HTTP/1.1\r\nHost: x\r\n\r\n", b"501"),
            (b"PUT / HTTP/1.1\r\nHost: x\r\n\r\n", b"501"),
            *((b"GET /x HTTP/1.1\r\n" + field + b"\r\n\r\n", b"400") for field in REFUSED_HOSTS),
            *((b"GET " + target + b" HTTP/1.1\r\nHost: x\r\n\r\n", b"400") for target in REFUSED_TARGETS),
        ],
        ids=["long-line", "101-fields", "long-field", "two-words", "four-words", "bad-version", "obs-fold", "no-colon",
             "post", "put", *REFUSED_HOSTS.values(), *REFUSED_TARGETS.values()],
    )
    def test_rejected_request_answered_then_closed(self, server, head, status):
        address, seen = server
        # a well-formed second request on the same stream must go unread
        answer = raw_exchange(address, head + b"GET /next HTTP/1.1\r\nHost: x\r\n\r\n")
        (line,) = status_lines(answer)
        assert line.split(b" ")[1] == status
        assert b"\r\nConnection: close\r\n" in answer
        assert seen == []

    @pytest.mark.parametrize("path", ["/a\x01b", "/a\x7fb", "/caf\xe9"], ids=["control", "delete", "non-ascii"])
    def test_unsendable_target_refused_before_the_proxy_counts_it(self, path):
        with serve_handler(make_sim().serve) as upstream:
            proxy = ReverseProxy(ProxyConfig(), lambda req: http_fetch(upstream.address, req))
            with serve_handler(proxy.handle_request) as front:
                answer = raw_exchange(front.address, f"GET {path} HTTP/1.1\r\nHost: x\r\n\r\n".encode("latin-1"))
                front_lines = front.log_lines
            upstream_lines = upstream.log_lines
        assert status_lines(answer) == [b"HTTP/1.1 400 Bad Request"]
        assert b"\r\nConnection: close\r\n" in answer
        assert proxy.metrics_snapshot().client_requests == 0
        assert front_lines == upstream_lines == []

    def test_host_and_target_refusals_are_uncounted(self):
        heads = [b"GET /x HTTP/1.1\r\n" + field + b"\r\n\r\n" for field in REFUSED_HOSTS]
        heads += [b"GET " + target + b" HTTP/1.1\r\nHost: x\r\n\r\n" for target in REFUSED_TARGETS]
        with serve_handler(make_sim().serve) as upstream:
            proxy = ReverseProxy(ProxyConfig(), lambda req: http_fetch(upstream.address, req))
            with serve_handler(proxy.handle_request) as front:
                answers = [raw_exchange(front.address, head) for head in heads]
                front_lines = front.log_lines
            upstream_lines = upstream.log_lines
        assert all(status_lines(answer) == [b"HTTP/1.1 400 Bad Request"] for answer in answers)
        assert proxy.metrics_snapshot() == ProxyMetrics()
        assert front_lines == upstream_lines == []

    def test_hundred_header_fields_accepted(self, server):
        address, seen = server
        head = b"GET /a HTTP/1.1\r\nHost: x\r\nConnection: close\r\n" + b"X-Filler: 1\r\n" * 98 + b"\r\n"
        assert status_lines(raw_exchange(address, head)) == [b"HTTP/1.1 200 OK"]
        assert len(seen) == 1

    @pytest.mark.parametrize("framing", [b"Content-Length: 35", b"Transfer-Encoding: chunked"])
    def test_request_with_body_answered_then_closed(self, server, framing):
        address, seen = server
        smuggled = b"GET /smuggled HTTP/1.1\r\nHost: x\r\n\r\n"
        assert len(smuggled) == 35
        answer = raw_exchange(address, b"GET /a HTTP/1.1\r\nHost: x\r\n" + framing + b"\r\n\r\n" + smuggled)
        assert status_lines(answer) == [b"HTTP/1.1 200 OK"]
        assert b"\r\nConnection: close\r\n" in answer
        assert [request.url for request in seen] == ["http://x/a"]

    def test_empty_body_keeps_the_connection(self, server):
        address, seen = server
        head = b"GET /a HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n"
        answer = raw_exchange(address, head + b"GET /b HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
        assert len(status_lines(answer)) == 2
        assert [request.url for request in seen] == ["http://x/a", "http://x/b"]

    @pytest.mark.parametrize("connection, answers", [(b"", 1), (b"Connection: keep-alive\r\n", 2)])
    def test_http10_closes_unless_keep_alive(self, server, connection, answers):
        address, seen = server
        first = b"GET /a HTTP/1.0\r\nHost: x\r\n" + connection + b"\r\n"
        answer = raw_exchange(address, first + b"GET /b HTTP/1.0\r\nHost: x\r\n\r\n")
        assert len(status_lines(answer)) == answers
        assert len(seen) == answers

    def test_http10_without_host_names_the_server(self, server):
        address, seen = server
        assert status_lines(raw_exchange(address, b"GET /a HTTP/1.0\r\n\r\n")) == [b"HTTP/1.1 200 OK"]
        assert [request.url for request in seen] == [f"http://{address}/a"]
        assert status_lines(raw_exchange(address, b"GET /b HTTP/1.0\r\nHost: \r\n\r\n")) == [b"HTTP/1.1 400 Bad Request"]

    def test_connections_over_the_cap_get_503(self, monkeypatch):
        monkeypatch.setattr(wire, "MAX_CONNECTIONS", 2)
        with serve_handler(lambda request, now: Response(200, (), b"ok")) as handle:
            held = [http.client.HTTPConnection(*split_hostport(handle.address), timeout=5) for _ in range(2)]
            try:
                for conn in held:  # each one now occupies a handler thread
                    conn.request("GET", "/")
                    assert conn.getresponse().read() == b"ok"
                answer = raw_exchange(handle.address, b"")
                assert status_lines(answer) == [b"HTTP/1.1 503 Service Unavailable"]
                assert b"\r\nConnection: close\r\n" in answer
            finally:
                for conn in held:
                    conn.close()
            # a closed connection frees its place once its thread sees the close
            deadline = time.monotonic() + 5
            while status_lines(raw_exchange(handle.address, b"GET / HTTP/1.0\r\n\r\n")) != [b"HTTP/1.1 200 OK"]:
                assert time.monotonic() < deadline
                time.sleep(0.01)

    def test_a_connection_whose_thread_fails_to_start_frees_its_place(self, monkeypatch):
        monkeypatch.setattr(wire, "MAX_CONNECTIONS", 1)
        start_thread = socketserver.ThreadingMixIn.process_request
        failures = [RuntimeError("can't start new thread")]

        def fails_once(server, request, client_address):
            if failures:
                raise failures.pop()
            start_thread(server, request, client_address)

        monkeypatch.setattr(socketserver.ThreadingMixIn, "process_request", fails_once)
        with serve_handler(lambda request, now: Response(200, (), b"ok")) as handle:
            assert raw_exchange(handle.address, b"") == b""  # closed unanswered
            answer = raw_exchange(handle.address, b"GET / HTTP/1.0\r\n\r\n")
        assert not failures
        assert status_lines(answer) == [b"HTTP/1.1 200 OK"]


class CountedConnects:
    """Counts http.client connects, as the tracer does."""

    def __init__(self, monkeypatch):
        self.count = 0
        connect = http.client.HTTPConnection.connect

        def counted(conn):
            self.count += 1
            return connect(conn)

        monkeypatch.setattr(http.client.HTTPConnection, "connect", counted)


class TestUpstreamConnection:
    def test_one_connection_serves_five_misses(self, monkeypatch):
        connects = CountedConnects(monkeypatch)
        sim = make_sim()
        with serve_handler(sim.serve) as upstream:
            proxy = ReverseProxy(ProxyConfig(), lambda req: http_fetch(upstream.address, req))
            with serve_handler(proxy.handle_request) as front:
                host, port = split_hostport(front.address)
                conn = http.client.HTTPConnection(host, port, timeout=5)
                try:
                    for i in range(5):
                        conn.request("GET", f"/wayback/20090628044051im_/http://site.pt/{i}.png")
                        raw = conn.getresponse()
                        raw.read()
                        assert raw.getheader("X-Cache") == "MISS"
                finally:
                    conn.close()
        assert sim.request_count == 5
        assert connects.count == 2  # the client's to the proxy and the proxy's to the upstream

    def test_connection_closed_by_idle_upstream_is_replaced(self, monkeypatch):
        monkeypatch.setattr(wire, "IDLE_TIMEOUT_SECONDS", 0.3)
        connects = CountedConnects(monkeypatch)
        sim = make_sim()
        with serve_handler(sim.serve) as upstream:
            path = "/wayback/20090628044051im_/http://site.pt/{}.png"
            first = http_fetch(upstream.address, Request("GET", path.format("ok")))
            time.sleep(0.6)  # the upstream closes the kept connection
            second = http_fetch(upstream.address, Request("GET", path.format("gone")))
            lines = upstream.log_lines
        assert (first.status, second.status) == (200, 404)
        assert [line.split(" ")[3] for line in lines] == ["200", "404"]
        assert sim.request_count == 2
        assert connects.count == 2

    def test_a_connection_per_address(self, monkeypatch):
        connects = CountedConnects(monkeypatch)
        with serve_handler(make_sim().serve) as one, serve_handler(make_sim().serve) as two:
            for address in (one.address, one.address, two.address, two.address, one.address):
                assert http_fetch(address, Request("GET", "/x")).status == 404
        assert connects.count == 3

    def test_will_close_is_honoured(self, monkeypatch):
        connects = CountedConnects(monkeypatch)
        with serve_handler(lambda request, now: Response(200, (("Connection", "close"),), b"ok")) as handle:
            for _ in range(3):
                assert http_fetch(handle.address, Request("GET", "/")).body == b"ok"
        assert connects.count == 3

    def test_upstream_that_stops_answering_gives_one_bounded_502(self, monkeypatch):
        monkeypatch.setattr(wire, "FETCH_TIMEOUT_SECONDS", 0.3)
        connects = CountedConnects(monkeypatch)
        release = threading.Event()

        def app(request, now):
            if request.url.endswith("/hang"):
                release.wait(5)
            return Response(200, (), b"ok")

        with serve_handler(app) as upstream:
            proxy = ReverseProxy(ProxyConfig(), lambda req: http_fetch(upstream.address, req))
            try:
                assert proxy.handle_request(Request("GET", "http://a.test/ok"), 0.0).status == 200
                start = time.monotonic()
                assert proxy.handle_request(Request("GET", "http://a.test/hang"), 0.0).status == 502
                assert time.monotonic() - start < 2
            finally:
                release.set()
            lines = upstream.log_lines
        assert connects.count == 1  # no second try on a new connection
        assert len([line for line in lines if "/hang" in line]) <= 1

    def test_request_bytes_on_the_wire(self):
        # the bytes http.client.HTTPConnection.request sent for a fetch, kept as they were
        with socket.create_server(("127.0.0.1", 0)) as listener:
            address = "127.0.0.1:%d" % listener.getsockname()[1]
            received = []

            def answer_once():
                conn, _ = listener.accept()
                with conn:
                    data = b""
                    while not data.endswith(b"\r\n\r\n"):
                        data += conn.recv(65536)
                    received.append(data)
                    conn.sendall(b"HTTP/1.1 204 No Content\r\nConnection: close\r\n\r\n")

            server = threading.Thread(target=answer_once, daemon=True)
            server.start()
            assert http_fetch(address, Request("HEAD", "http://a.test/p/q?x=1&y")).status == 204
            server.join(5)
        assert not server.is_alive()
        assert received == [
            b"HEAD /p/q?x=1&y HTTP/1.1\r\nHost: " + address.encode() + b"\r\nAccept-Encoding: identity\r\n\r\n"
        ]

    @pytest.mark.parametrize(
        "answer",
        [
            b"garbage\r\n\r\n",
            b"HTTP/1.1 20 OK\r\nContent-Length: 0\r\n\r\n",
            b"HTTP/2 200 OK\r\nContent-Length: 0\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: five\r\n\r\nhello",
            b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nhello",
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip\r\n\r\nhello",
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nContent-Length: 5\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\nhello\r\n0\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n9\r\nhello\r\n",
            b"HTTP/1.1 200 OK\r\nX-Folded: a\r\n b\r\nContent-Length: 0\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nX-Bad\rName: a\r\nContent-Length: 0\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nX-Bad: a\rb\r\nContent-Length: 0\r\n\r\n",
            b"HTTP/1.1 200 OK\r\n" + b"X-Filler: 1\r\n" * 101 + b"Content-Length: 0\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nX-Long: " + b"a" * 65536 + b"\r\nContent-Length: 0\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n",
        ],
        ids=["garbage", "two-digit-status", "http2", "non-numeric-length", "short-body", "gzip-coding",
             "chunked-and-length", "bad-chunk-size", "short-chunk", "obs-fold", "cr-in-name", "cr-in-value",
             "101-fields", "long-field", "head-cut-short"],
    )
    def test_malformed_upstream_answer_is_a_counted_502(self, answer):
        response, m = fetch_from_one_shot_upstream(answer)
        assert response.status == 502
        assert (m.client_requests, m.upstream_requests, m.responses_by_status) == (1, 1, {502: 1})
        assert m.client_requests == m.cache_hits_fresh + m.upstream_requests + m.throttled_429

    @pytest.mark.parametrize("framing", ["length", "chunked", "close"])
    @pytest.mark.parametrize("size, status", [(8, 200), (9, 502)], ids=["at-limit", "over-limit"])
    def test_body_over_the_relay_limit_is_a_counted_502(self, monkeypatch, framing, size, status):
        monkeypatch.setattr(wire, "_MAX_BODY", 8)
        body = b"x" * size
        answer = {
            "length": b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % size + body,
            # the running total crosses the limit in the second chunk
            "chunked": b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nxxxxx\r\n%x\r\n%s\r\n0\r\n\r\n"
                       % (size - 5, body[5:]),
            "close": b"HTTP/1.1 200 OK\r\n\r\n" + body,
        }[framing]
        response, m = fetch_from_one_shot_upstream(answer)
        assert response.status == status
        assert response.body == (body if status == 200 else b"upstream unreachable")
        assert (m.client_requests, m.upstream_requests, m.responses_by_status) == (1, 1, {status: 1})

    # the second is past the 4300 digits int() converts
    @pytest.mark.parametrize("length", [b"99999999999999", b"9" * 5000], ids=["14-digits", "5000-digits"])
    def test_huge_declared_length_is_a_counted_502_through_the_wire(self, caplog, length):
        with socket.create_server(("127.0.0.1", 0)) as listener:
            address = "127.0.0.1:%d" % listener.getsockname()[1]
            server = one_shot_upstream(listener, b"HTTP/1.1 200 OK\r\nContent-Length: " + length + b"\r\n\r\n")
            proxy = ReverseProxy(ProxyConfig(), lambda req: http_fetch(address, req))
            with serve_handler(proxy.handle_request) as front:
                status, _, _ = client_get(front.address, "/x")
            server.join(5)
        assert not server.is_alive()
        assert status == 502
        assert [r for r in caplog.records if r.levelno >= logging.ERROR] == []
        m = proxy.metrics_snapshot()
        assert (m.client_requests, m.upstream_requests, m.responses_by_status) == (1, 1, {502: 1})

    def test_head_answer_with_length_and_no_body_keeps_the_connection(self, monkeypatch):
        connects = CountedConnects(monkeypatch)
        with serve_handler(lambda request, now: Response(200, (("Content-Length", "5"),), b"hello")) as upstream:
            proxy = ReverseProxy(ProxyConfig(), lambda req: http_fetch(upstream.address, req))
            head = proxy.handle_request(Request("HEAD", "http://a.test/x"), 0.0)
            get = proxy.handle_request(Request("GET", "http://a.test/x"), 0.0)
            lines = upstream.log_lines
        assert (head.status, head.header("Content-Length"), head.body) == (200, "5", b"")
        assert (get.status, get.header("X-Cache"), get.body) == (200, "MISS", b"hello")
        assert [line.split(" ")[1] for line in lines] == ["HEAD", "GET"]
        assert connects.count == 1

    @pytest.mark.parametrize("ending", ["reset", "close"])
    def test_kept_connection_lost_after_the_status_line_is_not_resent(self, monkeypatch, ending):
        connects = CountedConnects(monkeypatch)
        log = []
        with socket.create_server(("127.0.0.1", 0)) as listener:
            def answer_then_cut():
                conn, _ = listener.accept()
                with conn:
                    for answer in (b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok", b"HTTP/1.1 200 OK\r\n"):
                        request = conn.recv(65536)
                        log.append(request.split(b"\r\n", 1)[0])
                        conn.sendall(answer)
                    if ending == "reset":
                        conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
                listener.settimeout(0.5)  # a resend would connect again
                try:
                    listener.accept()[0].close()
                    log.append(b"reconnected")
                except TimeoutError:
                    pass

            server = threading.Thread(target=answer_then_cut, daemon=True)
            server.start()
            address = "127.0.0.1:%d" % listener.getsockname()[1]
            try:
                proxy = ReverseProxy(ProxyConfig(), lambda req: http_fetch(address, req))
                first = proxy.handle_request(Request("GET", "http://a.test/first"), 0.0)
                second = proxy.handle_request(Request("GET", "http://a.test/second"), 0.0)
            finally:
                wire._take_kept(None)
            server.join(5)
        assert not server.is_alive()
        assert (first.status, first.body, second.status) == (200, b"ok", 502)
        assert log == [b"GET /first HTTP/1.1", b"GET /second HTTP/1.1"]
        assert connects.count == 1


class OracleSocket:
    """What http.client.HTTPResponse reads from: one shared stream it may not close."""

    class Stream(io.BufferedReader):
        def close(self):
            pass

    def __init__(self, data: bytes):
        self.stream = self.Stream(io.BytesIO(data))

    def makefile(self, mode):
        return self.stream


def oracle_end_to_end(headers):
    """http.client's header list without the hop-by-hop fields, filtered as the
    fetch client filtered it while http.client parsed its answers."""
    dropped = set(wire._HOP_BY_HOP)
    for name, value in headers:
        if name.lower() == "connection":
            dropped |= {token.strip().lower() for token in value.split(",")}
    return tuple((name, value) for name, value in headers if name.lower() not in dropped)


def generated_answer(rng: random.Random) -> tuple[str, bytes]:
    """A seeded upstream answer, and the method of the request it answers,
    drawn from what http.client and the fetch client both read the same way.
    Left out: a `Keep-Alive` field without `Connection: keep-alive`, which
    keeps an HTTP/1.0 connection for http.client and closes it for the fetch
    client; trailing whitespace in a value, which only http.client keeps;
    interim answers other than 100, which only the fetch client skips; and a
    chunked 204 or 304, whose body http.client reads though it has none."""
    method = rng.choice(["GET", "GET", "HEAD"])
    status = rng.choice([200, 200, 302, 404, 204, 304])
    version = rng.choice(["HTTP/1.1", "HTTP/1.1", "HTTP/1.0"])
    body = bytes(rng.randrange(256) for _ in range(rng.choice([0, 1, 17, 300, 9000])))
    fields = [(rng.choice(["Content-Type", "content-type", "CONTENT-TYPE"]), "text/plain"),
              ("Memento-Datetime", "Sun, 28 Jun 2009 04:40:51 GMT")]
    fields += [("X-Repeated", str(i)) for i in range(rng.randrange(3))]
    connection = rng.choice([None, "close", "keep-alive", "X-Trace", "close, X-Trace", "Keep-Alive, x-trace"])
    if connection is not None:
        fields += [("Connection", connection), ("X-Trace", "1")]
    if connection is not None and "keep-alive" in connection.lower():
        fields.append(("Keep-Alive", "timeout=5"))
    framing = rng.choice(["length", "close"] + ([] if status in (204, 304) else ["chunked"]))
    payload = body
    if framing == "length":
        fields.append(("Content-Length", str(len(body))))
    elif framing == "chunked":
        fields.append(("Transfer-Encoding", rng.choice(["chunked", "Chunked"])))
        cuts = sorted(rng.sample(range(len(body) + 1), min(3, len(body) + 1)))
        pieces = [body[a:b] for a, b in zip([0] + cuts, cuts + [len(body)]) if b > a]
        payload = b"".join(b"%x%s\r\n%s\r\n" % (len(p), rng.choice([b"", b";ext=1", b" ;a=b"]), p) for p in pieces)
        payload += b"0\r\n" + rng.choice([b"", b"X-Trailer: t\r\n", b"A: 1\r\nB: 2\r\n"]) + b"\r\n"
    if status in (204, 304) or method == "HEAD":
        payload = b""
    rng.shuffle(fields)
    head = f"{version} {status} Reason\r\n"
    head += "".join(f"{name}:{rng.choice(['', ' ', '  ', chr(9)])}{value}\r\n" for name, value in fields)
    interim = b"HTTP/1.1 100 Continue\r\nX-Interim: 1\r\n\r\n" if rng.random() < 0.2 else b""
    return method, interim + head.encode("latin-1") + b"\r\n" + payload


class TestResponseReader:
    FOLLOWING = b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nnext"

    def test_same_answer_as_http_client(self):
        rng = random.Random(20221201)
        for case in range(400):
            method, answer = generated_answer(rng)
            sock = OracleSocket(answer + self.FOLLOWING)
            oracle = http.client.HTTPResponse(sock, method=method)
            oracle.begin()
            expected = (oracle.status, oracle_end_to_end(oracle.getheaders()), oracle.read(), oracle.will_close,
                        sock.stream.read())
            stream = io.BufferedReader(io.BytesIO(answer + self.FOLLOWING))
            response, will_close = wire._read_response(stream, method == "HEAD")
            got = (response.status, response.headers, response.body, will_close, stream.read())
            assert got == expected, (case, method, answer[:400])

    def test_every_interim_answer_is_skipped(self):
        answer = (b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 103 Early Hints\r\nLink: </a.css>\r\n\r\n"
                  b"HTTP/1.1 404 Not Found\r\nContent-Length: 4\r\n\r\ngone")
        response, will_close = wire._read_response(io.BufferedReader(io.BytesIO(answer)), False)
        assert (response.status, response.headers, response.body, will_close) == (
            404, (("Content-Length", "4"),), b"gone", False)


def outcome(call):
    """What `call` returns, or ("bad", status) for the _BadMessage it raises."""
    try:
        return call()
    except wire._BadMessage as exc:
        return "bad", exc.status


# request field lines a draw picks from: valid and malformed ones, duplicates,
# bare-LF endings and one line over the memo's cap on its own
FIELD_LINES = [
    b"Host: x\r\n", b"host: x:8080\r\n", b"HOST: [::1]:80\r\n", b"Host: \r\n", b"Host: a/b\r\n",
    b"Connection: close\r\n", b"connection: keep-alive\r\n", b"Connection: Keep-Alive, X-Trace\r\n",
    b"Content-Length: 0\r\n", b"content-length: 35\r\n", b"Transfer-Encoding: chunked\r\n",
    b"Accept: */*\n", b"X-Dup: 1\r\n", b"X-Dup: 2\n",
    b"X-Value: a\rb\r\n", b"X-Nul: a\0b\r\n", b"No-Colon\r\n", b" obs-fold\r\n",
    b"X-Pad: " + b"p" * wire.MEMO_MAX_BYTES + b"\r\n",
]
# response fields a draw picks from: Date, Server and Content-Length as sent
# and lower-cased, an empty X-Cache, and a value over the memo's cap
RESPONSE_FIELDS = [
    ("Date", "Mon, 19 Oct 2026 10:00:00 GMT"), ("date", "Tue, 20 Oct 2026 10:00:00 GMT"),
    ("Server", "origin"), ("server", "o2"), ("Content-Length", "4"), ("content-length", "4"),
    ("X-Cache", "HIT"), ("x-cache", "MISS"), ("X-Cache", ""), ("Age", "0"), ("Age", "1"),
    ("Content-Type", "text/html"), ("Cache-Control", "public, max-age=600"), ("X-Pad", "p" * wire.MEMO_MAX_BYTES),
]
DATE = ("Date", "Mon, 19 Oct 2026 10:00:00 GMT")


@pytest.fixture
def empty_memos():
    wire._request_fields.cache_clear()
    wire._kept_head.cache_clear()


@pytest.mark.usefixtures("empty_memos")
class TestWireMemos:
    """A request's field block and a dated response's head are worked out once:
    the memos give what the direct parse and encoder give, and stay bounded."""

    def test_request_fields_through_the_memo_match_the_direct_parse(self):
        rng = random.Random(26)
        # more distinct blocks than the memo holds, each drawn many times
        versions = [("HTTP/1.1", ""), ("HTTP/1.0", ""), ("HTTP/1.0", "127.0.0.1:8080")]
        cases = [(rng.choices(FIELD_LINES, weights=[8] * 14 + [1] * 5, k=rng.randint(0, 4)), rng.choice(versions))
                 for _ in range(96)]
        for lines, (version, own) in rng.choices(cases, k=3000):
            block = b"".join(lines) + b"\r\n"
            before = wire._request_fields.cache_info()
            memo = outcome(lambda: wire._read_request_fields(io.BytesIO(block), version, own))
            direct = outcome(lambda: wire._request_fields.__wrapped__(tuple(lines), version, own))
            assert memo == direct, block
            if b"X-Value: a\rb\r\n" in lines:  # a lone CR inside a value
                assert memo == ("bad", 400)
            if len(block) - 2 >= wire.MEMO_MAX_BYTES:
                assert wire._request_fields.cache_info() == before
        info = wire._request_fields.cache_info()
        assert info.hits > 1000 and info.currsize <= wire.FIELDS_MEMO_SIZE

    def test_a_malformed_line_is_answered_before_a_later_limit(self):
        long_line = b"X-Long: " + b"a" * 65536 + b"\r\n"
        for block in (b"No-Colon\r\n" + long_line, b"X-Value: a\rb\r\n" + b"X: 1\r\n" * 101, b"No-Colon\r\n"):
            assert outcome(lambda: wire._read_request_fields(io.BytesIO(block), "HTTP/1.1", "")) == ("bad", 400)
        assert outcome(lambda: wire._read_request_fields(io.BytesIO(long_line), "HTTP/1.1", "")) == ("bad", 431)
        with pytest.raises(ConnectionError):
            wire._read_request_fields(io.BytesIO(b"Host: x\r\n"), "HTTP/1.1", "")

    def test_response_heads_through_the_memo_match_the_direct_encoder(self, monkeypatch):
        monkeypatch.setattr(wire, "formatdate", lambda usegmt: "Thu, 01 Jan 1970 00:00:00 GMT")
        rng = random.Random(26)
        cases = [(Response(rng.choice([200, 302, 404, 429, 500, 299]),
                           tuple(rng.choices(RESPONSE_FIELDS, weights=[4] * 13 + [1], k=rng.randint(0, 4))),
                           rng.choice([b"", b"gone", b"x" * 1000])), rng.random() < 0.5) for _ in range(96)]
        for response, keep_alive in rng.choices(cases, k=3000):
            headers = response.headers
            before = wire._kept_head.cache_info()
            head, marker = wire._response_head(response, keep_alive)
            direct, direct_marker, dated = wire._encode_head(response.status, headers, len(response.body), keep_alive)
            assert (head, marker) == (direct, direct_marker)
            assert marker == (response.header("X-Cache") or "-")
            after = wire._kept_head.cache_info()
            if not dated or len(head) >= wire.MEMO_MAX_BYTES:
                assert (after.hits, after.currsize) == (before.hits, before.currsize)
        info = wire._kept_head.cache_info()
        assert info.hits > 500 and info.currsize <= wire.HEAD_MEMO_SIZE

    def test_a_response_without_its_own_date_is_dated_on_every_send(self, monkeypatch):
        clock = iter([1_800_000_000.999, 1_800_000_001.0])  # either side of a second boundary
        monkeypatch.setattr(wire, "formatdate", lambda usegmt: email.utils.formatdate(next(clock), usegmt=usegmt))
        response = Response(404, (("Content-Type", "text/html"),), b"gone")
        heads = [wire._response_head(response, True)[0] for _ in range(2)]
        dates = [re.search(rb"\r\nDate: ([^\r]*)\r\n", head)[1] for head in heads]
        assert dates == [b"Fri, 15 Jan 2027 08:00:00 GMT", b"Fri, 15 Jan 2027 08:00:01 GMT"]
        assert wire._kept_head.cache_info().currsize == 0

    def test_recurring_hits_over_one_connection_are_answered_from_both_memos(self):
        ticks = itertools.count()
        paths = ["/wayback/20090628044051im_/http://site.pt/gone.png", "/wayback/20090628044051im_/http://site.pt/ok.png"]
        with serve_handler(make_sim().serve) as upstream:
            proxy = ReverseProxy(ProxyConfig(), lambda req: http_fetch(upstream.address, req))
            # 50 requests per proxy second, so the hits see Age 0 to 4
            with serve_handler(lambda request, _now: proxy.handle_request(request, next(ticks) / 50)) as front:
                host, port = front.address.split(":")
                conn = http.client.HTTPConnection(host, int(port), timeout=5)
                try:
                    def get(path):
                        conn.request("GET", path)
                        answer = conn.getresponse()
                        return answer.getheader("X-Cache"), answer.getheader("Age"), answer.read()

                    assert [get(path)[0] for path in paths] == ["MISS", "MISS"]
                    fields, heads = wire._request_fields.cache_info(), wire._kept_head.cache_info()
                    hits = [(path, *get(path)) for path in paths * 100]
                    conn.request("HEAD", paths[0])
                    head_answer = conn.getresponse()
                    head_answer.read()
                finally:
                    conn.close()
        assert {marker for _, marker, _, _ in hits} == {"HIT"}
        distinct = len({(path, age) for path, _, age, _ in hits})
        assert 2 <= distinct <= 10
        fields_after, heads_after = wire._request_fields.cache_info(), wire._kept_head.cache_info()
        assert fields_after.misses - fields.misses <= 1
        assert fields_after.hits - fields.hits >= 200
        assert heads_after.misses - heads.misses <= distinct
        assert heads_after.hits - heads.hits >= 200 - distinct
        assert head_answer.getheader("Content-Length") == str(len(hits[0][3]))

    def test_head_and_close_answers_carry_the_kept_head(self):
        def app(request, now):
            return Response(404, (DATE, ("X-Cache", "HIT")), b"gone")

        with serve_handler(app) as server:
            request = b"%s /a HTTP/1.1\r\nHost: x\r\n%s\r\n"
            answer = raw_exchange(server.address, request % (b"GET", b"") + request % (b"HEAD", b"")
                                  + request % (b"GET", b"Connection: close\r\n"))
        kept, _ = wire._response_head(app(None, 0), True)
        closing, _ = wire._response_head(app(None, 0), False)
        assert answer == kept + b"gone" + kept + closing + b"gone"
        assert closing == kept[:-2] + b"Connection: close\r\n\r\n"

    def test_hostile_blocks_and_heads_leave_the_memos_bounded(self):
        """Unique blocks and heads just under the cap, each of 100 fields, fill
        both memos with their costliest entries; unique ones far over it are
        never kept. Both memos together retain under 1.5 MiB."""
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for i in range(300):
                under = b"".join(b"X%d-%d: v\r\n" % (i, j) for j in range(99)) + b"Host: x\r\n"
                over = b"".join(b"X%d-%d: %s\r\n" % (i, j, b"p" * 600) for j in range(99)) + b"Host: x\r\n"
                assert len(under) < wire.MEMO_MAX_BYTES
                assert wire._read_request_fields(io.BytesIO(under + b"\r\n"), "HTTP/1.1", "") == ("x", True)
                before = wire._request_fields.cache_info()
                assert wire._read_request_fields(io.BytesIO(over + b"\r\n"), "HTTP/1.1", "") == ("x", True)
                assert wire._request_fields.cache_info() == before

                small = Response(200, tuple((f"X{i}-{j}", "v") for j in range(99)) + (DATE,))
                big = Response(200, tuple((f"X{i}-{j}", "p" * 600) for j in range(99)) + (DATE,))
                assert len(wire._response_head(small, True)[0]) < wire.MEMO_MAX_BYTES
                before = wire._kept_head.cache_info()
                wire._response_head(big, True)
                wire._response_head(big, True)
                after = wire._kept_head.cache_info()
                assert (after.hits, after.currsize) == (before.hits, before.currsize)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert wire._request_fields.cache_info().currsize == wire.FIELDS_MEMO_SIZE
        assert wire._kept_head.cache_info().currsize == wire.HEAD_MEMO_SIZE
        assert retained - start < 1.5 * 2**20
        assert peak - start < 2 * 2**20


class TestClose:
    def test_open_connection_not_answered_after_close(self):
        handle = serve_handler(lambda request, now: Response(200, (), b"old app"))
        host, port = split_hostport(handle.address)
        conn = http.client.HTTPConnection(host, port, timeout=5)
        try:
            conn.request("GET", "/")
            assert conn.getresponse().read() == b"old app"
            handle.close()
            with pytest.raises((http.client.HTTPException, OSError)):
                conn.request("GET", "/")
                conn.getresponse().read()
        finally:
            conn.close()

    @pytest.mark.parametrize("relisten", [False, True], ids=["nothing-listens", "new-listener"])
    def test_kept_upstream_connection_never_reaches_the_closed_app(self, relisten):
        old = serve_handler(lambda request, now: Response(200, (), b"old app"))
        address = old.address
        answers = []
        fetched = threading.Event()
        closed = threading.Event()

        def fetch_twice():
            # a thread keeps its own upstream connection, so both fetches run on this one
            try:
                answers.append(http_fetch(address, Request("GET", "/")).body)
                fetched.set()
                closed.wait(5)
                try:
                    answers.append(http_fetch(address, Request("GET", "/")).body)
                except UpstreamUnreachable:
                    answers.append("502")
            finally:
                wire._take_kept(None)

        fetcher = threading.Thread(target=fetch_twice)
        fetcher.start()
        new = None
        try:
            assert fetched.wait(5)
            old.close()
            if relisten:
                new = serve_handler(lambda request, now: Response(200, (), b"new app"), listen=address)
            closed.set()
            fetcher.join(5)
        finally:
            closed.set()
            if new is not None:
                new.close()
        assert not fetcher.is_alive()
        assert answers == [b"old app", b"new app" if relisten else "502"]


class TestHelpers:
    def test_split_hostport(self):
        assert split_hostport("127.0.0.1:8080") == ("127.0.0.1", 8080)
        with pytest.raises(ValueError):
            split_hostport("nohost")

    def test_origin_form(self):
        assert origin_form("http://a.test/p/q?x=1") == "/p/q?x=1"
        assert origin_form("http://a.test") == "/"

    def test_http_fetch_raises_on_dead_port(self):
        with pytest.raises(UpstreamUnreachable):
            http_fetch("127.0.0.1:1", Request("GET", "http://x/"))

    @pytest.mark.parametrize("path", ["/a\x01b", "/a\x7fb", "/caf\xe9"], ids=["control", "delete", "non-ascii"])
    def test_unsendable_target_never_reaches_the_upstream(self, path):
        with serve_handler(make_sim().serve) as upstream:
            with pytest.raises(UpstreamUnreachable):
                http_fetch(upstream.address, Request("GET", f"http://a.test{path}"))
            assert upstream.log_lines == []

    def test_relayed_location_with_a_space_is_not_sent(self):
        # run_page joins a relayed Location as it is, and the response reader
        # keeps a field's inner spaces, so only http_fetch's check keeps the
        # request line `GET /a b HTTP/1.1` off the wire
        def app(request, now):
            return Response(302, (("Location", "/a b"),)) if request.url.endswith("/start") else Response(200)

        with serve_handler(app) as upstream:
            base = f"http://{upstream.address}"
            spec = PageSpec("relay", (f"{base}/start",), (), duration=1.0)
            events = run_page(spec, lambda req: http_fetch(upstream.address, req))
            assert [(e.url, e.status) for e in events] == [(f"{base}/start", 302), (f"{base}/a b", 0)]
            assert len(upstream.log_lines) == 1

    def test_http_fetch_drops_hop_by_hop_headers(self):
        headers = (("Connection", "X-Trace"), ("X-Trace", "1"), ("Keep-Alive", "timeout=5"),
                   ("Upgrade", "h2c"), ("X-Kept", "yes"))
        with serve_handler(lambda request, now: Response(200, headers, b"ok")) as handle:
            response = http_fetch(handle.address, Request("GET", f"http://{handle.address}/"))
        names = {name.lower() for name, _ in response.headers}
        assert names.isdisjoint({"connection", "x-trace", "keep-alive", "upgrade"})
        assert (response.header("X-Kept"), response.body) == ("yes", b"ok")


def test_unique_urls_leave_bounded_state():
    """Unique URLs, half of them patch attempts, through a throttling proxy, the
    patching simulator and one listener: every per-key and per-request map
    stays within its bound."""
    sim = UpstreamSimulator(MementoStore(), patch=PatchConfig(enabled=True))
    proxy = ReverseProxy(ProxyConfig(policy=CachePolicy(capacity=1000), throttle=ThrottleConfig(enabled=True)),
                         lambda req: sim.serve(req, now))
    ticks = itertools.count()
    now = 0.0

    def app(request, _wall_clock):
        # one logical second per request, so a 30 s throttle window spans 30 requests
        nonlocal now
        now = float(next(ticks))
        return proxy.handle_request(request, now)

    n = 5000
    with serve_handler(app) as front:
        host, port = front.address.split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=5)
        try:
            for i in range(n):
                path = (f"/save/_embed/http://x.test/{i}.png" if i % 2
                        else f"/wayback/20210901000000im_/http://x.test/{i}.png")
                conn.request("GET", path)
                raw = conn.getresponse()
                raw.read()
                assert raw.status == (404 if i % 2 else 302)
                assert proxy._inflight == {}
                if i % 500 == 0:
                    assert len(proxy.throttle._last_allowed) <= 16
                    assert len(sim.throttle._last_allowed) <= 16
                    assert len(proxy.cache) <= 1000
                    assert len(front.log_lines) <= LOG_LINES_KEPT
        finally:
            conn.close()
        lines = front.log_lines
    assert len(lines) == LOG_LINES_KEPT
    assert lines[-1].split(" ")[2].endswith(f"/x.test/{n - 1}.png")
    assert len(proxy.throttle._last_allowed) <= 16
    assert len(sim.throttle._last_allowed) <= 16
    assert len(proxy.cache) == 1000
    assert sim.request_count == n
    assert sim.status_counts() == {302: n // 2, 404: n // 2}
