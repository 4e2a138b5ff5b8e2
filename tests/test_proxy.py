"""Proxy pipeline: injection, throttling, caching, and metric conservation."""

from __future__ import annotations

import random
import sys
import threading
import weakref

import pytest

from replay_shield import proxy as proxy_module
from replay_shield.cache import CachePolicy, KeyMode, make_cache_key
from replay_shield.configtext import ConfigError
from replay_shield.httpmsg import Request, Response
from replay_shield.proxy import (
    InjectionMode,
    Outcome,
    ProxyConfig,
    ProxyMetrics,
    ReverseProxy,
    SlidingWindowThrottle,
    Tally,
    ThrottleConfig,
    UpstreamUnreachable,
    inject_cache_control,
    proxy_config_from_text,
    render_metrics,
)


class FakeUpstream:
    """Archive stand-in: 404 for anything listed as missing, 200 otherwise."""

    def __init__(self, missing: set[str] | None = None):
        self.missing = missing or set()
        self.calls: list[str] = []

    def __call__(self, request: Request) -> Response:
        self.calls.append(request.url)
        if request.url in self.missing:
            return Response(404, (("Content-Type", "text/html"),), b"gone")
        return Response(200, (("Content-Type", "text/plain"),), b"hello")


def get(url: str) -> Request:
    return Request("GET", url)


MISSING = "http://archive.test/wayback/20090628044051im_/http://site.pt/loader-5.png"


class TestHandleRequest:
    def test_recurring_miss_served_from_cache(self):
        upstream = FakeUpstream(missing={MISSING})
        proxy = ReverseProxy(ProxyConfig(), upstream)
        first = proxy.handle_request(get(MISSING), now=0.0)
        assert first.status == 404
        assert first.header("Cache-Control") == "public, max-age=600"
        assert first.header("X-Cache") == "MISS"

        second = proxy.handle_request(get(MISSING), now=1.0)
        assert second.status == 404
        assert second.header("X-Cache") == "HIT"
        assert len(upstream.calls) == 1

    def test_hit_carries_age_since_store(self):
        proxy = ReverseProxy(ProxyConfig(), FakeUpstream(missing={MISSING}))
        miss = proxy.handle_request(get(MISSING), now=0.0)
        assert miss.header("Age") is None
        hit = proxy.handle_request(get(MISSING), now=7.5)
        assert (hit.header("X-Cache"), hit.header("Age")) == ("HIT", "7")

    def test_hit_replaces_stored_age_and_marker(self):
        def upstream(request):
            return Response(404, (("Age", "100"), ("X-Cache", "HIT from elsewhere")), b"")

        proxy = ReverseProxy(ProxyConfig(), upstream)
        proxy.handle_request(get(MISSING), now=0.0)
        hit = proxy.handle_request(get(MISSING), now=3.0)
        names = [name.lower() for name, _ in hit.headers]
        assert (names.count("age"), names.count("x-cache")) == (1, 1)
        # the response arrived 100 s old and has spent 3 s in the cache
        assert (hit.header("Age"), hit.header("X-Cache")) == ("103", "HIT")

    def test_hit_shape_one_age_one_marker_the_rest_in_order(self):
        origin = (("Content-Type", "text/html"), ("Age", "5"), ("ETag", '"v1"'), ("X-Cache", "MISS"), ("Link", "<a>"))
        proxy = ReverseProxy(ProxyConfig(), lambda request: Response(404, origin, b"gone"))
        miss = proxy.handle_request(get(MISSING), now=0.0)
        hit = proxy.handle_request(get(MISSING), now=2.0)
        names = [name.lower() for name, _ in hit.headers]
        assert (names.count("age"), names.count("x-cache")) == (1, 1)
        # 5 s old on arrival, then 2 s in the cache
        assert hit.headers[-2:] == (("Age", "7"), ("X-Cache", "HIT"))

        def end_to_end(response):
            return [field for field in response.headers if field[0] not in ("Age", "X-Cache")]

        assert end_to_end(hit) == end_to_end(miss) == [
            ("Content-Type", "text/html"), ("ETag", '"v1"'), ("Link", "<a>"), ("Cache-Control", "public, max-age=600")
        ]

    @pytest.mark.parametrize("mode", [InjectionMode.OFF, InjectionMode.MISSING_ONLY])
    @pytest.mark.parametrize("lines", [("public", "no-store"), ("max-age=60", "private")])
    def test_cache_control_read_from_every_field_line(self, mode, lines):
        calls = []

        def upstream(request):
            calls.append(request.url)
            return Response(404, tuple(("Cache-Control", line) for line in lines), b"gone")

        proxy = ReverseProxy(ProxyConfig(injection_mode=mode), upstream)
        assert [proxy.handle_request(get(MISSING), now=float(t)).header("X-Cache") for t in (0, 1)] == ["MISS", "MISS"]
        assert len(calls) == 2
        assert len(proxy.cache) == 0

    def test_arrival_age_shortens_freshness(self):
        calls = []

        def upstream(request):
            calls.append(request.url)
            return Response(404, (("Age", "100"),), b"")

        proxy = ReverseProxy(ProxyConfig(), upstream)
        proxy.handle_request(get(MISSING), now=0.0)
        # max-age=600 counts from generation: 100 s of it were spent on arrival
        assert proxy.handle_request(get(MISSING), now=499.9).header("X-Cache") == "HIT"
        assert proxy.handle_request(get(MISSING), now=500.0).header("X-Cache") == "MISS"
        assert len(calls) == 2

    def test_injection_off_caching_off_all_hit_upstream(self):
        upstream = FakeUpstream(missing={MISSING})
        cfg = ProxyConfig(
            injection_mode=InjectionMode.OFF,
            proxy_caching_enabled=False,
        )
        proxy = ReverseProxy(cfg, upstream)
        for i in range(5):
            r = proxy.handle_request(get(MISSING), now=float(i))
            assert r.header("Cache-Control") is None
        assert len(upstream.calls) == 5

    @pytest.mark.parametrize("cache_control, stored", [("private, max-age=60", 0), ("no-cache, max-age=60", 1)])
    def test_shared_cache_never_serves_private_or_no_cache(self, cache_control, stored):
        calls = []

        def upstream(request):
            calls.append(request.url)
            return Response(200, (("Cache-Control", cache_control),), b"for one user")

        proxy = ReverseProxy(ProxyConfig(injection_mode=InjectionMode.MISSING_ONLY), upstream)
        markers = [proxy.handle_request(get("http://a/b"), now=float(t)).header("X-Cache") for t in (0, 1)]
        assert markers == ["MISS", "MISS"]
        assert len(calls) == 2
        assert len(proxy.cache) == stored

    @pytest.mark.parametrize(
        "cache_control, markers", [("s-maxage=0, max-age=600", ["MISS", "MISS"]), ("s-maxage=600, max-age=0", ["MISS", "HIT"])]
    )
    def test_shared_cache_takes_s_maxage_over_max_age(self, cache_control, markers):
        calls = []

        def upstream(request):
            calls.append(request.url)
            return Response(404, (("Cache-Control", cache_control),), b"gone")

        proxy = ReverseProxy(ProxyConfig(injection_mode=InjectionMode.MISSING_ONLY), upstream)
        assert [proxy.handle_request(get(MISSING), now=float(t)).header("X-Cache") for t in (0, 1)] == markers
        assert len(calls) == markers.count("MISS")

    @pytest.mark.parametrize(
        "headers",
        [(("Cache-Control", "max-age=10, max-age=1000"),), (("Cache-Control", "max-age=10"), ("Cache-Control", "max-age=1000")),
         (("Cache-Control", "max-age=600"), ("Vary", "*"))],
        ids=["duplicate-max-age-one-line", "duplicate-max-age-two-lines", "vary-star"],
    )
    def test_rfc9111_refetches_at_100_s(self, headers):
        calls = []

        def upstream(request):
            calls.append(request.url)
            return Response(404, headers, b"gone")

        proxy = ReverseProxy(ProxyConfig(injection_mode=InjectionMode.OFF), upstream)
        assert [proxy.handle_request(get(MISSING), now=float(t)).header("X-Cache") for t in (0, 100)] == ["MISS", "MISS"]
        assert len(calls) == 2

    def test_missing_only_404_with_past_expires_is_refetched(self):
        calls = []

        def upstream(request):
            calls.append(request.url)
            headers = (("Cache-Control", "public"), ("Date", "Mon, 19 Oct 2026 10:00:00 GMT"),
                       ("Expires", "Mon, 19 Oct 2026 09:00:00 GMT"))
            return Response(404, headers, b"gone")

        proxy = ReverseProxy(ProxyConfig(injection_mode=InjectionMode.MISSING_ONLY), upstream)
        assert [proxy.handle_request(get(MISSING), now=float(t)).header("X-Cache") for t in (0, 1)] == ["MISS", "MISS"]
        assert len(calls) == 2

    def test_save_embed_throttled_second_request(self):
        upstream = FakeUpstream()
        cfg = ProxyConfig(throttle=ThrottleConfig(enabled=True))
        proxy = ReverseProxy(cfg, upstream)
        url = "http://archive.test/save/_embed/http://x/y.jpg"
        assert proxy.handle_request(get(url), now=0.0).status == 200
        denied = proxy.handle_request(get(url), now=10.0)
        assert denied.status == 429
        assert denied.body == b""
        assert int(denied.header("Retry-After")) == 20

    def test_upstream_unreachable_becomes_502(self):
        def broken(request):
            raise UpstreamUnreachable("refused")

        proxy = ReverseProxy(ProxyConfig(), broken)
        assert proxy.handle_request(get("http://a/b"), now=0.0).status == 502

    def test_malformed_request_400(self):
        proxy = ReverseProxy(ProxyConfig(), FakeUpstream())
        assert proxy.handle_request(Request("POST", "http://a/b"), now=0.0).status == 400
        assert proxy.handle_request(Request("POST", "http://a/__metrics"), now=0.0).status == 400
        assert proxy.handle_request(get("not-a-url"), now=0.0).status == 400
        assert proxy.metrics_snapshot().client_requests == 0

    @pytest.mark.parametrize("key_mode", list(KeyMode))
    def test_url_urlsplit_refuses_is_an_uncounted_400(self, key_mode):
        upstream = FakeUpstream()
        proxy = ReverseProxy(ProxyConfig(policy=CachePolicy(key_mode=key_mode)), upstream)
        for url in ("http://[::1/x", "http://[::1/x?_=1697000000000", "http://[1.2.3.4]/x"):
            refused = proxy.handle_request(get(url), now=0.0)
            assert (refused.status, refused.header("X-Cache")) == (400, "MISS")
        assert proxy.metrics_snapshot() == ProxyMetrics()
        assert upstream.calls == []

    def test_head_bypasses_cache(self):
        upstream = FakeUpstream()
        proxy = ReverseProxy(ProxyConfig(), upstream)
        proxy.handle_request(Request("HEAD", "http://a/b"), now=0.0)
        proxy.handle_request(Request("HEAD", "http://a/b"), now=1.0)
        assert len(upstream.calls) == 2

    def test_head_answered_from_the_stored_get(self):
        upstream = FakeUpstream(missing={MISSING})
        proxy = ReverseProxy(ProxyConfig(), upstream)
        proxy.handle_request(get(MISSING), now=0.0)
        head = proxy.handle_request(Request("HEAD", MISSING), now=2.0)
        assert (head.status, head.header("X-Cache"), head.header("Age")) == (404, "HIT", "2")
        assert head.body == b"gone"  # the wire sends the head alone, with this body's length
        assert upstream.calls == [MISSING]
        m = proxy.metrics_snapshot()
        assert (m.client_requests, m.cache_hits_fresh, m.upstream_requests) == (2, 1, 1)
        assert m.client_requests == m.cache_hits_fresh + m.upstream_requests + m.throttled_429

    def test_head_miss_forwarded_and_never_stored(self):
        methods = []

        def upstream(request):
            methods.append(request.method)
            return Response(404, (), b"" if request.method == "HEAD" else b"gone")

        proxy = ReverseProxy(ProxyConfig(), upstream)
        markers = [
            proxy.handle_request(Request(method, MISSING), now=float(t)).header("X-Cache")
            for t, method in enumerate(["HEAD", "HEAD", "GET", "HEAD", "GET"])
        ]
        assert markers == ["MISS", "MISS", "MISS", "HIT", "HIT"]
        assert methods == ["HEAD", "HEAD", "GET"]
        assert proxy.handle_request(get(MISSING), now=9.0).body == b"gone"
        m = proxy.metrics_snapshot()
        assert (m.client_requests, m.cache_hits_fresh, m.upstream_requests) == (6, 3, 3)

    def test_metrics_endpoint(self):
        proxy = ReverseProxy(ProxyConfig(), FakeUpstream())
        proxy.handle_request(get("http://a/b"), now=0.0)
        r = proxy.handle_request(get("http://a/__metrics"), now=1.0)
        assert r.status == 200
        assert "client_requests 1" in r.body.decode()
        assert "upstream_requests 1" in r.body.decode()

    def test_stale_entry_refreshed_from_upstream(self):
        upstream = FakeUpstream(missing={MISSING})
        proxy = ReverseProxy(ProxyConfig(), upstream)
        proxy.handle_request(get(MISSING), now=0.0)
        r = proxy.handle_request(get(MISSING), now=600.0)  # stale at exactly max-age
        assert r.header("X-Cache") == "MISS"
        assert len(upstream.calls) == 2
        assert proxy.handle_request(get(MISSING), now=601.0).header("X-Cache") == "HIT"


    @pytest.mark.parametrize("mode", [InjectionMode.ALWAYS, InjectionMode.MISSING_ONLY])
    def test_throttle_and_server_error_are_never_stamped(self, mode):
        statuses = {"http://a/throttled": 429, "http://a/down": 503, "http://a/missing": 404}
        proxy = ReverseProxy(ProxyConfig(injection_mode=mode), lambda req: Response(statuses[req.url]))
        stamped = {url: proxy.handle_request(get(url), now=0.0).header("Cache-Control") for url in statuses}
        assert stamped == {"http://a/throttled": None, "http://a/down": None, "http://a/missing": "public, max-age=600"}


class TestInjectCacheControl:
    def test_always_sets_header_on_404(self):
        out = inject_cache_control(Response(404, (), b""), InjectionMode.ALWAYS)
        assert out.header("Cache-Control") == "public, max-age=600"
        assert out.status == 404 and out.body == b""

    def test_missing_only_keeps_existing(self):
        existing = Response(200, (("Cache-Control", "no-store"),), b"x")
        out = inject_cache_control(existing, InjectionMode.MISSING_ONLY)
        assert out == existing

    def test_missing_only_sets_when_absent(self):
        out = inject_cache_control(Response(200, (), b"x"), InjectionMode.MISSING_ONLY)
        assert out.header("Cache-Control") == "public, max-age=600"

    def test_status_404_only_ignores_200(self):
        r = Response(200, (("Content-Type", "text/css"),), b"x")
        assert inject_cache_control(r, InjectionMode.STATUS_404_ONLY) == r

    def test_status_404_only_sets_on_404(self):
        out = inject_cache_control(Response(404, (), b""), InjectionMode.STATUS_404_ONLY)
        assert out.header("Cache-Control") == "public, max-age=600"

    def test_always_overwrites(self):
        existing = Response(404, (("Cache-Control", "no-store"),), b"")
        out = inject_cache_control(existing, InjectionMode.ALWAYS)
        assert out.headers.count(("Cache-Control", "public, max-age=600")) == 1
        assert out.header("Cache-Control") == "public, max-age=600"

    def test_other_headers_and_body_preserved(self):
        r = Response(404, (("Content-Type", "text/html"), ("Memento-Datetime", "x")), b"<h1>")
        out = inject_cache_control(r, InjectionMode.ALWAYS)
        assert out.header("Content-Type") == "text/html"
        assert out.header("Memento-Datetime") == "x"
        assert out.body == r.body


class TestThrottle:
    def test_sliding_window_replay(self):
        t = SlidingWindowThrottle()
        assert t.check("u", now=0.0) is None
        assert t.check("u", now=10.0) is not None
        assert t.check("u", now=31.0) is None

    def test_denied_requests_do_not_extend_window(self):
        t = SlidingWindowThrottle()
        assert t.check("u", now=0.0) is None
        for at in (5.0, 15.0, 25.0):
            assert t.check("u", at) is not None
        # window anchored at the t=0 allow only
        assert t.check("u", now=30.5) is None

    def test_check_keys_the_target_and_answers_the_429(self):
        t = SlidingWindowThrottle()
        assert t.check("http://x.pt/a.jpg", 0.0) is None
        denied = t.check("http://X.pt:80/a.jpg", 1.0)  # another spelling of the same target
        assert denied.status == 429
        assert denied.header("Retry-After") == "29"

    def test_an_unparsable_target_is_keyed_by_its_text(self):
        t = SlidingWindowThrottle()
        assert t.check("not a url", 0.0) is None
        assert list(t._last_allowed) == ["not a url"]
        assert t.check("not a url", 29.5).header("Retry-After") == "1"
        assert t.check("Not a url", 29.5) is None

    def test_non_matching_path_always_allowed(self):
        proxy = ReverseProxy(ProxyConfig(throttle=ThrottleConfig(enabled=True)), FakeUpstream())
        for i in range(10):
            assert proxy.handle_request(get("http://archive.test/wayback/x"), now=float(i)).status == 200

    def test_disabled_always_allows(self):
        proxy = ReverseProxy(ProxyConfig(throttle=ThrottleConfig(enabled=False)), FakeUpstream())
        for i in range(10):
            assert proxy.handle_request(get("http://archive.test/save/_embed/u"), now=0.0).status == 200

    def test_per_key_isolation(self):
        t = SlidingWindowThrottle()
        assert t.check("a", now=0.0) is None
        assert t.check("b", now=1.0) is None
        assert t.check("a", now=2.0) is not None

    def test_keys_forgotten_once_their_window_passes(self):
        t = SlidingWindowThrottle()
        for i in range(1000):
            assert t.check(f"k{i}", now=float(i)) is None
            assert len(t._last_allowed) == min(i + 1, 30)
        assert t.check("k999", now=1000.0) is not None
        assert t.check("k0", now=1000.0) is None


class TestMetrics:
    def test_zero_without_traffic(self):
        m = ReverseProxy(ProxyConfig(), FakeUpstream()).metrics_snapshot()
        assert (m.client_requests, m.cache_hits_fresh, m.upstream_requests, m.throttled_429) == (0, 0, 0, 0)
        assert m.responses_by_status == {}

    def test_ten_requests_caching_on(self):
        proxy = ReverseProxy(ProxyConfig(), FakeUpstream(missing={MISSING}))
        for i in range(10):
            proxy.handle_request(get(MISSING), now=float(i))
        m = proxy.metrics_snapshot()
        assert m.client_requests == 10
        assert m.upstream_requests == 1
        assert m.cache_hits_fresh == 9
        assert m.responses_by_status[404] == 10

    def test_ten_requests_caching_off(self):
        proxy = ReverseProxy(
            ProxyConfig(proxy_caching_enabled=False), FakeUpstream(missing={MISSING})
        )
        for i in range(10):
            proxy.handle_request(get(MISSING), now=float(i))
        assert proxy.metrics_snapshot().upstream_requests == 10

    def test_tally_loses_no_count_under_contention(self):
        import sys
        import threading

        tally = Tally()

        def add_many():
            for _ in range(20000):
                tally.add((Outcome.HIT, 404))

        threads = [threading.Thread(target=add_many) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert tally.snapshot() == {(Outcome.HIT, 404): 160000}

    def test_render_format(self):
        proxy = ReverseProxy(ProxyConfig(), FakeUpstream())
        proxy.handle_request(get("http://a/b"), now=0.0)
        text = render_metrics(proxy.metrics_snapshot())
        assert "client_requests 1\n" in text
        assert "status_200 1\n" in text


def run_random_trace(rng: random.Random, *, caching: bool, key_mode=KeyMode.EXACT, n=1000):
    urls = [f"http://host{rng.randint(0, 3)}.test/r{rng.randint(0, 30)}" for _ in range(n // 2)]
    urls += [f"http://host.test/save/_embed/http://x/r{rng.randint(0, 5)}" for _ in range(n - len(urls))]
    rng.shuffle(urls)
    missing = {u for u in urls if rng.random() < 0.5}
    cfg = ProxyConfig(
        policy=CachePolicy(key_mode=key_mode, default_max_age=10**6),
        throttle=ThrottleConfig(enabled=True),
        proxy_caching_enabled=caching,
    )
    proxy = ReverseProxy(cfg, FakeUpstream(missing=missing))
    t = 0.0
    for u in urls:
        proxy.handle_request(get(u), now=t)
        t += rng.random() * 2
    return proxy.metrics_snapshot(), urls


class TestConservation:
    def test_conservation_over_random_traces(self):
        rng = random.Random(429)
        for _ in range(100):
            m, _ = run_random_trace(rng, caching=rng.random() < 0.5, n=1000)
            assert m.client_requests == m.cache_hits_fresh + m.upstream_requests + m.throttled_429
            assert m.client_requests == sum(m.responses_by_status.values())

    def test_every_snapshot_conserves_under_concurrent_requests(self):
        import sys
        import threading

        def upstream(request):
            if request.url.endswith("/down"):
                raise UpstreamUnreachable("refused")
            return Response(404, (), b"")

        cfg = ProxyConfig(policy=CachePolicy(default_max_age=10**6), throttle=ThrottleConfig(enabled=True))
        proxy = ReverseProxy(cfg, upstream)
        for i in range(5):
            proxy.handle_request(get(f"http://a/warm{i}"), now=0.0)
        rng = random.Random(16)
        chunks = []
        for _ in range(8):
            urls = [f"http://a/warm{i % 5}" for i in range(20)] + [f"http://a/new{i % 10}" for i in range(20)]
            urls += ["http://a/down"] * 10 + ["http://a/save/_embed/http://x/p"] * 10
            rng.shuffle(urls)
            chunks.append(urls)

        def client(urls):
            for u in urls:
                proxy.handle_request(get(u), now=0.0)

        done = threading.Event()
        snapshots, broken = [], []

        def reader():
            while not done.is_set():
                m = proxy.metrics_snapshot()
                snapshots.append(m)
                by_outcome = m.cache_hits_fresh + m.upstream_requests + m.throttled_429
                if not m.client_requests == by_outcome == sum(m.responses_by_status.values()):
                    broken.append(m)

        threads = [threading.Thread(target=client, args=(urls,)) for urls in chunks]
        watcher = threading.Thread(target=reader)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            watcher.start()
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            done.set()
            watcher.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads + [watcher])
        assert snapshots and broken == []
        m = proxy.metrics_snapshot()
        # warm keys always hit; each new key is fetched once; every /down is
        # its own 502; one patch request passes the throttle
        assert (m.client_requests, m.cache_hits_fresh, m.upstream_requests, m.throttled_429) == (485, 310, 96, 79)
        assert m.responses_by_status == {404: 326, 502: 80, 429: 79}

    def test_distinct_url_upper_bound(self):
        rng = random.Random(200)
        for _ in range(20):
            cfg = ProxyConfig(policy=CachePolicy(default_max_age=10**6))
            proxy = ReverseProxy(cfg, FakeUpstream(missing=set()))
            urls = [f"http://h.test/r{rng.randint(0, 20)}" for _ in range(300)]
            for i, u in enumerate(urls):
                proxy.handle_request(get(u), now=float(i))
            assert proxy.metrics_snapshot().upstream_requests == len(set(urls))

    def test_disabling_cache_never_decreases_upstream(self):
        rng = random.Random(77)
        urls = [f"http://h.test/r{rng.randint(0, 10)}" for _ in range(200)]

        def run(caching: bool) -> int:
            proxy = ReverseProxy(ProxyConfig(proxy_caching_enabled=caching), FakeUpstream())
            for i, u in enumerate(urls):
                proxy.handle_request(get(u), now=float(i) * 0.1)
            return proxy.metrics_snapshot().upstream_requests

        assert run(False) >= run(True)


class TestKeyModes:
    def test_canonical_mode_collapses_query_order(self):
        upstream = FakeUpstream()
        cfg = ProxyConfig(policy=CachePolicy(key_mode=KeyMode.CANONICAL))
        proxy = ReverseProxy(cfg, upstream)
        proxy.handle_request(get("http://a.test/p?b=2&a=1"), now=0.0)
        r = proxy.handle_request(get("http://a.test/p?a=1&b=2"), now=1.0)
        assert r.header("X-Cache") == "HIT"
        assert len(upstream.calls) == 1

    def test_fuzzy_mode_collapses_timestamp_params(self):
        upstream = FakeUpstream()
        cfg = ProxyConfig(policy=CachePolicy(key_mode=KeyMode.FUZZY))
        proxy = ReverseProxy(cfg, upstream)
        for i in range(50):
            proxy.handle_request(get(f"http://a.test/feed?ts=163048967512{i:02d}"), now=float(i))
        assert len(upstream.calls) == 1

    def test_canonical_mode_memo_drops_an_empty_query_only(self):
        upstream = FakeUpstream()
        proxy = ReverseProxy(ProxyConfig(policy=CachePolicy(key_mode=KeyMode.CANONICAL)), upstream)
        markers = [proxy.handle_request(get(url), now=0.0).header("X-Cache")
                   for url in ("http://a.test/p?", "http://a.test/p", "http://a.test/p?_=1697000000000")]
        assert markers == ["MISS", "HIT", "MISS"]
        assert upstream.calls == ["http://a.test/p?", "http://a.test/p?_=1697000000000"]
        # two labels: "http://a.test/p" and "http://a.test/p?_=1697000000000"
        info = proxy._route_of.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 2, 2)


FEED = "http://archive.test/wayback/20090628044051/http://site.pt/feed?lang=en&_={}"


def fuzzy_proxy(capacity: int = 10_000, **config) -> ReverseProxy:
    policy = CachePolicy(key_mode=KeyMode.FUZZY, capacity=capacity)
    return ReverseProxy(ProxyConfig(policy=policy, **config), FakeUpstream())


class TestKeyMemo:
    def test_a_cache_busted_poll_uses_the_memo(self):
        proxy = fuzzy_proxy()
        markers = [proxy.handle_request(get(FEED.format(1697000000000 + i)), now=0.0).header("X-Cache") for i in range(5)]
        assert markers == ["MISS"] + ["HIT"] * 4
        # one label: "http://archive.test/wayback/20090628044051/http://site.pt/feed?lang=en"
        info = proxy._route_of.cache_info()
        assert (info.hits, info.misses, info.currsize) == (4, 1, 1)

    def test_exact_keys_have_no_memo(self):
        proxy = ReverseProxy(ProxyConfig(), FakeUpstream())
        proxy.handle_request(get(MISSING), now=0.0)
        assert not hasattr(proxy._route_of, "cache_info")

    def test_distinct_urls_never_outgrow_capacity(self):
        proxy = fuzzy_proxy(capacity=10)
        sizes = []
        for i in range(30):
            proxy.handle_request(get(f"http://a.test/r{i}?_=1697000000000"), now=0.0)
            sizes.append(proxy._route_of.cache_info().currsize)
        assert max(sizes) == 10
        assert proxy.metrics_snapshot().upstream_requests == 30

    def test_a_polled_feed_keeps_its_route_through_capacity_unique_urls(self, monkeypatch):
        derived = []
        derive = proxy_module.make_cache_key
        monkeypatch.setattr(proxy_module, "make_cache_key", lambda url, p: derived.append(url) or derive(url, p))
        proxy = fuzzy_proxy(capacity=10)
        proxy.handle_request(get(FEED.format(1697000000000)), now=0.0)
        for i in range(10):
            proxy.handle_request(get(f"http://a.test/r{i}"), now=0.0)
            poll = proxy.handle_request(get(FEED.format(1697000000001 + i)), now=0.0)
            assert poll.header("X-Cache") == "HIT"
        # the feed's key derived once, then one per unique URL: the least recently used label goes first
        assert len(derived) == 1 + 10
        assert proxy._route_of.cache_info().currsize == 10

    def test_post_on_a_memo_hit_is_an_uncounted_400(self):
        proxy = fuzzy_proxy()
        proxy.handle_request(get(FEED.format(1697000000000)), now=0.0)
        refused = proxy.handle_request(Request("POST", FEED.format(1697000000001)), now=1.0)
        assert (refused.status, refused.header("X-Cache")) == (400, "MISS")
        assert proxy.metrics_snapshot().client_requests == 1

    def test_metrics_path_answered_on_every_request(self):
        proxy = fuzzy_proxy()
        for url in ("http://a.test/__metrics", "http://a.test/__metrics?_=1697000000000") * 2:
            assert proxy.handle_request(get(url), now=0.0).body.startswith(b"client_requests 0\n")

    def test_throttle_still_answers_a_repeated_patch_target(self):
        proxy = fuzzy_proxy(throttle=ThrottleConfig(enabled=True))
        url = "http://a.test/save/_embed/http://x/y.jpg?_=1697000000000"
        assert [proxy.handle_request(get(url), now=float(t)).status for t in range(3)] == [200, 429, 429]

    def test_throttle_keys_a_memoized_patch_route_by_its_own_target(self):
        proxy = fuzzy_proxy(throttle=ThrottleConfig(enabled=True))
        urls = [f"http://a.test/save/_embed/http://x/y.jpg?_={1697000000000 + i}" for i in range(3)]
        # one label, but three targets: each is the first attempt at its own
        assert [proxy.handle_request(get(url), now=0.0).status for url in urls] == [200, 200, 200]
        assert proxy._route_of.cache_info().currsize == 1
        assert proxy.handle_request(get(urls[1]), now=1.0).status == 429

    @pytest.mark.parametrize("mode", list(KeyMode))
    def test_a_dropped_proxy_is_freed_at_once(self, mode):
        proxy = ReverseProxy(ProxyConfig(policy=CachePolicy(key_mode=mode)), FakeUpstream())
        proxy.handle_request(get(FEED.format(1697000000000)), now=0.0)
        dropped = weakref.ref(proxy)
        del proxy
        assert dropped() is None  # by reference count: the memo holds no cycle through the proxy

    def test_nothing_memoized_with_caching_off(self):
        proxy = fuzzy_proxy(proxy_caching_enabled=False)
        for i in range(3):
            proxy.handle_request(get(FEED.format(1697000000000 + i)), now=0.0)
        assert not hasattr(proxy._route_of, "cache_info")
        assert proxy.metrics_snapshot().upstream_requests == 3

    def test_memo_keys_and_counts_hold_under_contention(self):
        proxy = fuzzy_proxy(capacity=8, throttle=ThrottleConfig(enabled=True))
        local = threading.local()
        wrong = []
        lookup = proxy.cache.lookup

        def checked_lookup(key, now):
            if key != make_cache_key(local.url, proxy.config.policy):
                wrong.append((local.url, key))
            return lookup(key, now)

        proxy.cache.lookup = checked_lookup
        rng = random.Random(8)
        chunks = [
            [f"http://a.test/r{rng.randrange(12)}?v={rng.randrange(3)}&_={rng.randrange(10**12, 10**13)}" for _ in range(300)]
            + ["http://a.test/save/_embed/http://x/p", "http://a.test/__metrics"] * 5
            for _ in range(8)
        ]

        def client(urls):
            for url in urls:
                local.url = url
                proxy.handle_request(get(url), now=0.0)

        threads = [threading.Thread(target=client, args=(urls,)) for urls in chunks]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert proxy._route_of.cache_info().currsize <= 8
        m = proxy.metrics_snapshot()
        assert m.client_requests == 8 * 305 == m.cache_hits_fresh + m.upstream_requests + m.throttled_429
        assert m.client_requests == sum(m.responses_by_status.values())


class TestCoalescing:
    def test_concurrent_misses_collapse_to_one_fetch(self):
        import threading
        import time as _time

        calls = []

        def slow_upstream(request):
            calls.append(request.url)
            _time.sleep(0.05)
            return Response(404, (), b"")

        proxy = ReverseProxy(ProxyConfig(), slow_upstream)
        threads = [
            threading.Thread(target=lambda: proxy.handle_request(get("http://a/img"), now=0.0))
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(calls) == 1
        m = proxy.metrics_snapshot()
        assert m.client_requests == 4
        assert m.upstream_requests == 1
        assert m.cache_hits_fresh == 3

    def test_each_key_fetched_once_and_inflight_emptied_under_contention(self):
        import sys
        import threading
        import time

        calls = []

        def upstream(request):
            calls.append(request.url)
            time.sleep(0.001)  # a fetch waits on the network
            return Response(404, (), b"")

        proxy = ReverseProxy(ProxyConfig(), upstream)
        urls = [f"http://a/img{i % 20}" for i in range(800)]

        def client(chunk):
            for u in chunk:
                proxy.handle_request(get(u), now=0.0)

        # more threads than cores, switching every few bytecodes
        threads = [threading.Thread(target=client, args=(urls[j::8],)) for j in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(calls) == sorted(set(urls))
        assert proxy._inflight == {}
        m = proxy.metrics_snapshot()
        assert (m.client_requests, m.upstream_requests, m.cache_hits_fresh) == (800, 20, 780)

    FETCH_SECONDS = 0.3

    def concurrent_misses(self, answer):
        """Four concurrent misses on one key against an upstream that takes
        FETCH_SECONDS and then calls `answer`; returns the proxy, the upstream
        calls and each client's (status, seconds to its answer)."""
        import threading
        import time

        calls = []

        def upstream(request):
            calls.append(request.url)
            time.sleep(self.FETCH_SECONDS)
            return answer()

        proxy = ReverseProxy(ProxyConfig(), upstream)
        start = threading.Barrier(4)
        answers = []

        def client():
            start.wait()
            began = time.monotonic()
            status = proxy.handle_request(get("http://a/img"), now=0.0).status
            answers.append((status, time.monotonic() - began))

        threads = [threading.Thread(target=client) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        return proxy, calls, answers

    def test_waiters_share_the_leaders_failure(self):
        def answer():
            raise UpstreamUnreachable("refused")

        proxy, calls, answers = self.concurrent_misses(answer)
        assert len(calls) == 1
        assert [status for status, _ in answers] == [502] * 4
        assert max(seconds for _, seconds in answers) < 2 * self.FETCH_SECONDS
        assert proxy._inflight == {}
        m = proxy.metrics_snapshot()
        assert (m.client_requests, m.upstream_requests, m.responses_by_status) == (4, 4, {502: 4})

    def test_waiters_fetch_in_parallel_after_an_answer_not_stored(self):
        proxy, calls, answers = self.concurrent_misses(lambda: Response(302, (("Location", "http://a/elsewhere"),)))
        assert len(calls) == 4
        assert [status for status, _ in answers] == [302] * 4
        assert max(seconds for _, seconds in answers) < 2.5 * self.FETCH_SECONDS
        assert proxy._inflight == {}
        m = proxy.metrics_snapshot()
        assert (m.client_requests, m.upstream_requests, m.cache_hits_fresh) == (4, 4, 0)


class TestConfigText:
    def test_full_config_round_trip(self):
        text = """
        # proxy settings
        listen = 127.0.0.1:9090
        upstream = 127.0.0.1:9091
        injection.mode = status_404_only
        cache.enabled = false
        cache.max_age = 300
        cache.key_mode = canonical
        cache.capacity = 500
        throttle.enabled = true
        """
        # every key set away from its default
        assert proxy_config_from_text(text) == ProxyConfig(
            listen_address="127.0.0.1:9090",
            upstream_address="127.0.0.1:9091",
            policy=CachePolicy(default_max_age=300, key_mode=KeyMode.CANONICAL, capacity=500),
            injection_mode=InjectionMode.STATUS_404_ONLY,
            throttle=ThrottleConfig(enabled=True),
            proxy_caching_enabled=False,
        )

    def test_defaults_from_empty(self):
        assert proxy_config_from_text("") == ProxyConfig()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            proxy_config_from_text("bogus = 1")

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError):
            proxy_config_from_text("injection.mode = sideways")

    def test_bad_capacity_rejected(self):
        with pytest.raises(ConfigError):
            proxy_config_from_text("cache.capacity = 0")
