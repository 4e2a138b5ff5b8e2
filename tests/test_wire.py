"""Live-socket layer: servers, proxy-to-upstream fetches, request logs."""

from __future__ import annotations

import http.client
import itertools
import logging
import socket
import time

import pytest

from replay_shield import wire
from replay_shield.cache import CachePolicy
from replay_shield.httpmsg import Request, Response
from replay_shield.proxy import ProxyConfig, ReverseProxy, ThrottleConfig, UpstreamUnreachable
from replay_shield.upstream import MementoStore, PatchConfig, UpstreamSimulator, parse_manifest_text
from replay_shield.wire import LOG_LINES_KEPT, http_fetch, origin_form, serve_handler, split_hostport

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
                    steps = (("GET", "MISS", b"pngbytes"), ("HEAD", "MISS", b""), ("GET", "HIT", b"pngbytes"))
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
                    assert {"client_requests 3", "cache_hits_fresh 1", "upstream_requests 2"} <= set(lines)
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
