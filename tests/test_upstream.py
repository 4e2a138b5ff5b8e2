"""Simulated archive backend: serving, patching, manifest loading."""

from __future__ import annotations

import logging
import random
import weakref

import pytest

from replay_shield import upstream
from replay_shield.httpmsg import Request, Response
from replay_shield.proxy import ProxyConfig, ReverseProxy, SlidingWindowThrottle, ThrottleConfig
from replay_shield.upstream import (
    NOT_FOUND,
    ROUTE_MEMO_SIZE,
    ManifestParseError,
    MementoRecord,
    MementoStore,
    PatchConfig,
    UpstreamSimulator,
    load_store_from_manifest,
    parse_manifest_text,
    rfc1123_from_timestamp14,
    timestamp14_at,
)
from replay_shield.urls import parse_urir
from replay_shield.workload import ARCHIVE_PREFIX, SCENARIO_NAMES, builtin_scenario

LOADER_TS = "20090628044051"
LOADER_URL = "http://www.radiocomercial.iol.pt/styles/slideshow/loader-0.png"
URIM = f"http://archive.test/wayback/{LOADER_TS}im_/{LOADER_URL}"


def store_with_loader0() -> MementoStore:
    store = MementoStore()
    store.insert(
        MementoRecord(
            target=parse_urir(LOADER_URL),
            timestamp14=LOADER_TS,
            status=200,
            content_type="image/png",
            body=b"\x89PNG fake",
        )
    )
    return store


def get(url: str) -> Request:
    return Request("GET", url)


class TestServe:
    def test_exact_hit_with_memento_datetime(self):
        sim = UpstreamSimulator(store_with_loader0())
        r = sim.serve(get(URIM), now=0.0)
        assert r.status == 200
        assert r.header("Memento-Datetime") == "Sun, 28 Jun 2009 04:40:51 GMT"
        assert r.header("Content-Type") == "image/png"
        assert r.body == b"\x89PNG fake"

    def test_absent_capture_patch_off_404(self):
        sim = UpstreamSimulator(store_with_loader0())
        missing = URIM.replace("loader-0", "loader-5")
        r = sim.serve(get(missing), now=0.0)
        assert r.status == 404
        assert b"404" in r.body

    @pytest.mark.parametrize("patch", [False, True], ids=["patch-off", "patch-on"])
    def test_url_urlsplit_refuses_is_a_counted_404(self, patch):
        sim = UpstreamSimulator(store_with_loader0(), patch=PatchConfig(enabled=patch))
        for url in ("http://[::1/wayback/20090628044051im_/http://x.pt/a", "http://[::1/save/_embed/http://x.pt/a"):
            assert sim.serve(get(url), now=0.0) is NOT_FOUND
        assert sim.status_counts() == {404: 2}

    @pytest.mark.parametrize("patch", [False, True], ids=["patch-off", "patch-on"])
    @pytest.mark.parametrize("port", ["\u00b2", "\u0663", "9" * 5000], ids=["superscript", "arabic-indic", "5000-digits"])
    def test_target_port_that_does_not_read_is_a_counted_404(self, patch, port):
        sim = UpstreamSimulator(store_with_loader0(), patch=PatchConfig(enabled=patch))
        for url in (f"http://archive.test/wayback/20090628044051im_/http://x.pt:{port}/a",
                    f"http://archive.test/save/_embed/http://x.pt:{port}/a"):
            assert sim.serve(get(url), now=0.0).status == 404
        assert sim.status_counts() == {404: 2}

    def test_absent_capture_patch_on_redirects_to_save(self):
        sim = UpstreamSimulator(MementoStore(), patch=PatchConfig(enabled=True))
        r = sim.serve(get("http://a.test/web/20100822133654/http://x.pt/img.jpg"), now=0.0)
        assert r.status == 302
        assert r.header("Location") == "/save/_embed/http://x.pt/img.jpg"

    def test_nearest_timestamp_redirect(self):
        sim = UpstreamSimulator(store_with_loader0())
        r = sim.serve(get(f"http://archive.test/wayback/20090628050000im_/{LOADER_URL}"), now=0.0)
        assert r.status == 302
        assert r.header("Location") == f"/wayback/{LOADER_TS}im_/{LOADER_URL}"

    def test_equidistant_captures_first_stored_wins(self):
        store = MementoStore()
        for ts, body in (("20090628050000", b"later"), ("20090628040000", b"earlier")):
            store.insert(MementoRecord(parse_urir(LOADER_URL), ts, 200, "image/png", body))
        sim = UpstreamSimulator(store)
        r = sim.serve(get(f"http://archive.test/wayback/20090628043000im_/{LOADER_URL}"), now=0.0)
        assert r.status == 302
        assert r.header("Location") == f"/wayback/20090628050000im_/{LOADER_URL}"

    def test_exact_non_200_record_redirects_to_nearest_capture(self):
        store = store_with_loader0()
        store.insert(MementoRecord(parse_urir(LOADER_URL), "20100101000000", 404, "text/html", b"recorded miss"))
        sim = UpstreamSimulator(store)
        r = sim.serve(get(f"http://archive.test/wayback/20100101000000im_/{LOADER_URL}"), now=0.0)
        assert r.status == 302
        assert r.header("Location") == f"/wayback/{LOADER_TS}im_/{LOADER_URL}"

    def test_unparsable_path_is_404(self):
        sim = UpstreamSimulator(store_with_loader0())
        assert sim.serve(get("http://archive.test/whatever"), now=0.0).status == 404
        assert sim.serve(get("http://archive.test/wayback/20090628044051/no-scheme"), now=0.0).status == 404

    def test_never_200_for_unstored_timestamp_pair(self):
        # 404-status manifest records are documentation of misses, not servable bodies
        store = MementoStore()
        store.insert(
            MementoRecord(parse_urir(LOADER_URL), LOADER_TS, 404, "text/html", b"recorded miss")
        )
        sim = UpstreamSimulator(store)
        assert sim.serve(get(URIM), now=0.0).status == 404

    def test_query_is_part_of_target(self):
        store = MementoStore()
        target = "http://feeds.test/api?f=scores"
        store.insert(MementoRecord(parse_urir(target), "20210901092756", 200, "application/json", b"{}"))
        sim = UpstreamSimulator(store)
        hit = sim.serve(get(f"http://a.test/web/20210901092756/{target}"), now=0.0)
        assert hit.status == 200
        miss = sim.serve(get("http://a.test/web/20210901092756/http://feeds.test/api?f=news"), now=0.0)
        assert miss.status == 404

    def test_request_log_tracks_all(self):
        sim = UpstreamSimulator(store_with_loader0())
        sim.serve(get(URIM), now=0.0)
        sim.serve(get(URIM.replace("loader-0", "loader-9")), now=1.0)
        assert sim.request_count == 2
        assert sim.status_counts() == {200: 1, 404: 1}

    def test_counts_agree_under_concurrent_requests(self, monkeypatch):
        import sys
        import threading

        # fewer routes than URLs, so the memo fills and evicts under contention
        monkeypatch.setattr(upstream, "ROUTE_MEMO_SIZE", 3)
        sim = UpstreamSimulator(store_with_loader0(), patch=PatchConfig(enabled=True))
        urls = [
            URIM,  # the capture: 200
            f"http://archive.test/wayback/20090628050000im_/{LOADER_URL}",  # the nearest capture: 302
            URIM.replace("loader-0", "loader-9"),  # not held, so a patch redirect: 302
            "http://archive.test/save/_embed/http://x.pt/a.jpg",  # 404 once, then 429
        ] * 25

        def client():
            for u in urls:
                sim.serve(get(u), now=0.0)

        threads = [threading.Thread(target=client) for _ in range(8)]
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
        assert sim.request_count == sum(sim.status_counts().values()) == 8 * len(urls)
        assert sim.status_counts() == {200: 200, 302: 400, 404: 1, 429: 199}
        assert sim._route_of.cache_info().currsize <= 3


class TestPatch:
    def live_store(self) -> MementoStore:
        store = MementoStore()
        target = parse_urir("http://x.pt/img.jpg")
        from replay_shield.urls import canonicalize

        store.live_web[canonicalize(target)] = (200, "image/jpeg", b"jpeg bytes")
        return store

    def test_patch_archives_from_live_web(self):
        sim = UpstreamSimulator(self.live_store(), patch=PatchConfig(enabled=True))
        r = sim.patch("http://x.pt/img.jpg", now=0.0)
        assert r.status == 200
        # the capture is now servable (nearest-match redirect then exact hit)
        ts = timestamp14_at(0.0)
        follow = sim.serve(get(f"http://a.test/web/{ts}/http://x.pt/img.jpg"), now=1.0)
        assert follow.status == 200
        assert follow.body == b"jpeg bytes"

    def test_patch_target_not_on_live_web(self):
        sim = UpstreamSimulator(MementoStore(), patch=PatchConfig(enabled=True))
        assert sim.patch("http://x.pt/gone.jpg", now=0.0).status == 404
        assert sim.store.records == {}

    def test_patch_throttled_within_window(self):
        sim = UpstreamSimulator(MementoStore(), patch=PatchConfig(enabled=True))
        assert sim.patch("http://x.pt/a.jpg", now=0.0).status == 404
        assert sim.patch("http://x.pt/a.jpg", now=10.0).status == 429
        assert sim.patch("http://x.pt/a.jpg", now=31.0).status == 404

    def test_proxy_and_archive_429_carry_the_same_retry_after(self):
        sim = UpstreamSimulator(MementoStore(), patch=PatchConfig(enabled=True))
        proxy = ReverseProxy(ProxyConfig(throttle=ThrottleConfig(enabled=True)), lambda request: Response(404))
        request = get("http://archive.test/save/_embed/http://x.pt/a.jpg")
        assert sim.serve(request, now=0.0).status == proxy.handle_request(request, now=0.0).status == 404
        retry_after = []
        for now in (1.0, 10.5, 29.9):
            denied = (sim.serve(request, now), proxy.handle_request(request, now))
            assert [r.status for r in denied] == [429, 429]
            retry_after.append([r.header("Retry-After") for r in denied])
        assert retry_after == [["29", "29"], ["20", "20"], ["1", "1"]]

    def test_proxy_throttles_a_respelled_patch_target_as_the_archive_would(self):
        sim = UpstreamSimulator(MementoStore(), patch=PatchConfig(enabled=True))
        clock = [0.0]
        proxy = ReverseProxy(ProxyConfig(throttle=ThrottleConfig(enabled=True)), lambda r: sim.serve(r, clock[0]))
        first = proxy.handle_request(get("http://archive.test/save/_embed/http://x.pt/a.jpg"), clock[0])
        assert first.status == 404
        clock[0] = 5.0
        again = proxy.handle_request(get("http://archive.test/save/_embed/http://x.pt:80/a.jpg"), clock[0])
        assert again.status == 429
        assert again.header("Retry-After") == "25"
        metrics = proxy.metrics_snapshot()
        assert (metrics.throttled_429, metrics.upstream_requests) == (1, 1)
        assert sim.status_counts() == {404: 1}

    def test_serve_routes_save_embed_to_patch(self):
        sim = UpstreamSimulator(self.live_store(), patch=PatchConfig(enabled=True))
        r = sim.serve(get("http://a.test/save/_embed/http://x.pt/img.jpg"), now=0.0)
        assert r.status == 200


def scenario_store_text() -> str:
    """The holdings of every builtin scenario, plus a simulated live web that
    has one missing loader and two targets the archive never saw, one of
    them gone from the live web too."""
    manifests = [builtin_scenario(name)[1] for name in SCENARIO_NAMES]
    live = [
        "live:\t200\timage/png\thttp://www.radiocomercial.iol.pt/styles/slideshow/loader-3.png\tinline:png3",
        "live:\t200\timage/jpeg\thttp://x.pt/img.jpg\tinline:jpeg!",
        "live:\t404\t-\thttp://x.pt/gone.jpg\tinline:",
    ]
    return "".join(manifests) + "\n".join(live) + "\n"


def generated_request_urls(rng: random.Random, n: int) -> list[str]:
    """Every URL the builtin scenarios request, then `n` seeded ones: replay
    URLs of held, live-only and unknown targets, some respelled, at held,
    random and invalid timestamps; non-replay paths; patch targets; and URLs
    urlsplit refuses."""
    urls = sorted(set().union(*(builtin_scenario(name)[0].distinct_urls() for name in SCENARIO_NAMES)))
    targets = [
        "http://www.radiocomercial.iol.pt/styles/slideshow/loader-0.png",
        "http://www.radiocomercial.iol.pt/styles/slideshow/loader-3.png",
        "http://WWW.radiocomercial.iol.pt:80/styles/slideshow/loader-3.png",
        "http://www.radiocomercial.iol.pt/",
        "https://www.livesport.com/en/",
        "http://mre.example/js/carousel.js",
        "http://x.pt/img.jpg",
        "http://x.pt/gone.jpg",
        "http://unknown.example/a?b=2&a=1",
        "not-a-url",
        "ftp://x.pt/a",
    ]
    timestamps = [
        "20090628044051", "20090628052553", "20210915120000", "20210901092755", "20210901000000",
        "19991231235959", "20091301000000", "20090230120000", "20090628046051", "2009062804405",
    ]
    for _ in range(n):
        kind = rng.random()
        target = rng.choice(targets)
        if kind < 0.6:
            prefix = rng.choice([ARCHIVE_PREFIX, "http://a.test/web", "http://archive.test"])
            modifier = rng.choice(["", "", "im_", "js_", "mp_", "zz_"])
            urls.append(f"{prefix}/{rng.choice(timestamps)}{modifier}/{target}")
        elif kind < 0.8:
            urls.append(f"http://{rng.choice(['archive.test', 'a.test:8080'])}/save/_embed/{rng.choice([target, ''])}")
        elif kind < 0.9:
            urls.append(rng.choice(["http://archive.test/", "http://archive.test/__metrics", f"http://archive.test/{target}",
                                    "http://archive.test/wayback/latest/http://x.pt/img.jpg"]))
        else:
            urls.append(f"http://[::1/wayback/{rng.choice(timestamps)}/{target}")
    return urls


class TestRouteMemo:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("patch", [False, True], ids=["patch-off", "patch-on"])
    def test_memoized_answers_equal_a_fresh_simulators(self, seed, patch):
        """A warm simulator answers each URL, first and again, as a fresh one
        over the same holdings and throttle state does; in patch mode both
        archive the same captures at the same times."""
        rng = random.Random(seed)
        memoized = UpstreamSimulator(parse_manifest_text(scenario_store_text()), PatchConfig(enabled=patch))
        reference_store = parse_manifest_text(scenario_store_text())
        reference_throttle = SlidingWindowThrottle()
        now = 0.0
        for url in generated_request_urls(rng, 400):
            for _ in range(2):
                now += rng.choice([0.5, 5.0, 40.0])
                fresh = UpstreamSimulator(reference_store, PatchConfig(enabled=patch))
                fresh.throttle = reference_throttle
                assert memoized.serve(get(url), now) == fresh.serve(get(url), now), url
        assert memoized.store.records == reference_store.records
        assert memoized._route_of.cache_info().currsize

    def test_unique_urls_never_outgrow_the_memo(self):
        sim = UpstreamSimulator(MementoStore())
        sizes = []
        for i in range(ROUTE_MEMO_SIZE + 100):
            sim.serve(get(f"{ARCHIVE_PREFIX}/20090628044051/http://x.pt/{i}.png"), now=0.0)
            sizes.append(sim._route_of.cache_info().currsize)
        assert max(sizes) == ROUTE_MEMO_SIZE
        assert sim.status_counts() == {404: ROUTE_MEMO_SIZE + 100}

    def test_a_recurring_url_keeps_its_route_through_unique_ones(self, monkeypatch):
        monkeypatch.setattr(upstream, "ROUTE_MEMO_SIZE", 3)
        sim = UpstreamSimulator(MementoStore())
        sim.serve(get(URIM), now=0.0)
        for i in range(10):
            sim.serve(get(f"{ARCHIVE_PREFIX}/20090628044051/http://x.pt/{i}.png"), now=0.0)
            sim.serve(get(URIM), now=0.0)
        info = sim._route_of.cache_info()
        assert (info.hits, info.misses, info.currsize) == (10, 11, 3)

    def test_a_dropped_simulator_is_freed_at_once(self):
        sim = UpstreamSimulator(store_with_loader0())
        sim.serve(get(URIM), now=0.0)
        dropped = weakref.ref(sim)
        del sim
        assert dropped() is None  # by reference count: the memo holds no cycle through the simulator

    def test_holdings_looked_up_on_every_request(self):
        store = store_with_loader0()
        calls = []
        nearest = store.nearest_capture
        store.nearest_capture = lambda key, ts: calls.append(ts) or nearest(key, ts)
        sim = UpstreamSimulator(store)
        statuses = [sim.serve(get(URIM), now=float(t)).status for t in range(3)]
        assert statuses == [200] * 3
        assert calls == [LOADER_TS] * 3


MANIFEST = """\
# archive holdings for the carousel page
20090628044051\t200\timage/png\thttp://www.radiocomercial.iol.pt/styles/slideshow/loader-0.png\tinline:png0
20090628044051\t404\t-\thttp://www.radiocomercial.iol.pt/styles/slideshow/loader-1.png\tinline:
live:\t200\timage/jpeg\thttp://x.pt/img.jpg\tinline:jpeg!
"""


class TestManifest:
    def test_parse_records_and_live(self):
        store = parse_manifest_text(MANIFEST)
        assert len(store.records) == 2
        assert len(store.live_web) == 1
        rec = store.records[_key("http://www.radiocomercial.iol.pt/styles/slideshow/loader-0.png")]["20090628044051"]
        assert rec.body == b"png0"

    def test_twelve_missing_loaders_serve_404(self):
        lines = [
            f"20090628044051\t404\t-\thttp://www.radiocomercial.iol.pt/styles/slideshow/loader-{i}.png\tinline:"
            for i in range(12)
        ]
        store = parse_manifest_text("\n".join(lines))
        sim = UpstreamSimulator(store)
        for i in range(12):
            url = f"http://a.test/wayback/20090628044051im_/http://www.radiocomercial.iol.pt/styles/slideshow/loader-{i}.png"
            assert sim.serve(get(url), now=0.0).status == 404

    def test_malformed_line_names_line_number(self):
        with pytest.raises(ManifestParseError) as err:
            parse_manifest_text("20090628044051\t200\timage/png\thttp://a.pt/x.png")
        assert err.value.lineno == 1
        with pytest.raises(ManifestParseError, match="line 2"):
            parse_manifest_text(
                "20090628044051\t200\ttext/plain\thttp://a.pt/x\tinline:ok\n"
                "not-a-ts\t200\ttext/plain\thttp://a.pt/y\tinline:ok\n"
            )

    def test_bad_status_and_target(self):
        with pytest.raises(ManifestParseError, match="status"):
            parse_manifest_text("20090628044051\tmany\t-\thttp://a.pt/x\tinline:")
        with pytest.raises(ManifestParseError):
            parse_manifest_text("20090628044051\t200\t-\tnot-a-url\tinline:")

    def test_duplicate_last_wins(self, caplog):
        text = (
            "20090628044051\t200\ttext/plain\thttp://a.pt/x\tinline:first\n"
            "20090628044051\t200\ttext/plain\thttp://a.pt/x\tinline:second\n"
        )
        with caplog.at_level(logging.WARNING):
            store = parse_manifest_text(text)
        assert len(store.records) == 1
        assert store.records[_key("http://a.pt/x")]["20090628044051"].body == b"second"
        assert any("duplicate" in r.message for r in caplog.records)

    def test_insert_reports_replacement(self):
        store = store_with_loader0()
        again = MementoRecord(parse_urir(LOADER_URL), LOADER_TS, 404, "", b"")
        later = MementoRecord(parse_urir(LOADER_URL), "20100101000000", 200, "image/png", b"")
        assert store.insert(again) is True
        assert store.insert(later) is False
        (captures,) = store.records.values()
        assert len(captures) == 2

    def test_body_from_file(self, tmp_path):
        (tmp_path / "body.bin").write_bytes(b"\x00\x01file")
        manifest = tmp_path / "store.manifest"
        manifest.write_text("20090628044051\t200\tapplication/octet-stream\thttp://a.pt/x\tbody.bin\n")
        store = load_store_from_manifest(manifest)
        assert store.records[_key("http://a.pt/x")]["20090628044051"].body == b"\x00\x01file"


def _key(url: str) -> str:
    from replay_shield.urls import canonicalize

    return canonicalize(parse_urir(url))


class TestTimestampRendering:
    def test_rfc1123(self):
        assert rfc1123_from_timestamp14("20090628044051") == "Sun, 28 Jun 2009 04:40:51 GMT"
        assert rfc1123_from_timestamp14("20210901092755") == "Wed, 01 Sep 2021 09:27:55 GMT"

    def test_timestamp_at_offset(self):
        assert timestamp14_at(0.0) == "20210901000000"
        assert timestamp14_at(61.5) == "20210901000101"
