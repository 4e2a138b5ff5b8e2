"""Page behavior simulation: schedules, browser cache model, limiter."""

from __future__ import annotations

import codecs
import csv
import dataclasses
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from replay_shield.cache import CachePolicy
from replay_shield.configtext import ConfigError
from replay_shield.httpmsg import Request, Response
from replay_shield.proxy import InjectionMode, ProxyConfig, ReverseProxy
from replay_shield.upstream import UpstreamSimulator, parse_manifest_text
from replay_shield.workload import (
    BEHAVIOR_TYPES,
    EVENTS_BLOCK_ROWS,
    SCENARIO_NAMES,
    BrowserCacheModel,
    CarouselLoop,
    ClientEvent,
    EventSource,
    LimiterRule,
    LoaderRetry,
    LogicalClock,
    OnErrorFallback,
    PageSpec,
    UnknownScenario,
    XhrPoll,
    browser_cache_decide,
    builtin_scenario,
    read_events_csv,
    run_page,
    spec_from_text,
    write_events_csv,
)


def counting_transport(missing: set[str] | None = None, headers: tuple = ()):
    missing = missing or set()
    calls: list[str] = []

    def transport(request: Request) -> Response:
        calls.append(request.url)
        if request.url in missing:
            return Response(404, headers, b"nope")
        return Response(200, headers, b"ok")

    return transport, calls


def network_events(events: list[ClientEvent]) -> list[ClientEvent]:
    return [e for e in events if e.source is EventSource.NETWORK]


def mre_stack(cache_on: bool):
    """Full in-process pipeline: workload -> proxy -> simulated archive."""
    spec, manifest = builtin_scenario("mre")
    sim = UpstreamSimulator(parse_manifest_text(manifest))
    clock = LogicalClock()
    cfg = ProxyConfig(
        injection_mode=InjectionMode.ALWAYS if cache_on else InjectionMode.OFF,
        proxy_caching_enabled=cache_on,
        policy=CachePolicy(),
    )
    proxy = ReverseProxy(cfg, lambda req: sim.serve(req, clock.now()))
    transport = lambda req: proxy.handle_request(req, clock.now())
    return spec, transport, clock, proxy, sim


class TestRunPageSchedules:
    def test_mre_without_injection_rate(self):
        spec, transport, clock, _, _ = mre_stack(cache_on=False)
        events = run_page(spec, transport, clock)
        # schedule oracle: essentials + one carousel tick every 1/3 s
        expected_fires = sum(1 for k in range(1, 100000) if k * (1 / 3) <= 60 + 1e-9)
        net = network_events(events)
        assert len(net) == 4 + expected_fires
        assert 166 <= len(net) <= 188

    def test_mre_with_injection_exactly_seven(self):
        spec, transport, clock, proxy, _ = mre_stack(cache_on=True)
        events = run_page(spec, transport, clock)
        net = network_events(events)
        assert len(net) == 7
        assert len({e.url for e in net}) == 7
        later = [e for e in events if e not in net]
        assert all(e.source is EventSource.MEMORY_CACHE for e in later)
        assert proxy.metrics_snapshot().upstream_requests == 7

    def test_no_behaviors_only_essentials(self):
        transport, calls = counting_transport()
        spec = PageSpec("bare", ("http://a/1", "http://a/2"), (), duration=5.0)
        events = run_page(spec, transport)
        assert len(network_events(events)) == 2
        assert calls == ["http://a/1", "http://a/2"]

    def test_xhr_poll_count(self):
        transport, calls = counting_transport(missing={"http://a/feed"})
        spec = PageSpec("poll", (), (XhrPoll("http://a/feed", interval=5.0),), duration=60.0)
        events = run_page(spec, transport)
        assert len(events) == 12
        assert events[0].t == pytest.approx(5.0)
        assert events[-1].t == pytest.approx(60.0)

    def test_carousel_cycles_urls_in_order(self):
        transport, calls = counting_transport(missing={"http://a/1", "http://a/2"})
        spec = PageSpec(
            "c", (), (CarouselLoop(urls=("http://a/1", "http://a/2"), period=1.0),), duration=4.0
        )
        run_page(spec, transport)
        assert calls == ["http://a/1", "http://a/2", "http://a/1", "http://a/2"]

    def test_loader_retry_drops_succeeded_urls(self):
        # URL 0 succeeds; only 404 URLs are retried on later cycles
        transport, calls = counting_transport(missing={"http://a/img-1", "http://a/img-2"})
        spec = PageSpec(
            "l",
            (),
            (LoaderRetry(template="http://a/img-#", count=3, cycle_period=1.0),),
            duration=3.0,
        )
        events = run_page(spec, transport)
        assert calls.count("http://a/img-0") == 1
        # not even asked of the memory cache again
        assert [e.url for e in events].count("http://a/img-0") == 1
        assert calls.count("http://a/img-1") == 3
        assert calls.count("http://a/img-2") == 3

    def test_onerror_fallback_pairs(self):
        transport, calls = counting_transport(missing={"http://a/img", "http://a/resize?img=x"})
        spec = PageSpec(
            "o",
            (),
            (OnErrorFallback(primary="http://a/img", fallback="http://a/resize?img=x", retry_period=2.0),),
            duration=6.0,
        )
        run_page(spec, transport)
        assert calls == ["http://a/img", "http://a/resize?img=x"] * 3

    def test_onerror_stops_after_primary_succeeds(self):
        transport, calls = counting_transport()
        spec = PageSpec(
            "o",
            (),
            (OnErrorFallback(primary="http://a/img", fallback="http://a/r", retry_period=1.0),),
            duration=10.0,
        )
        run_page(spec, transport)
        # 200s enter the session cache, so even the success fires once only
        assert calls == ["http://a/img"]

    def test_sub_tick_periods_fire_multiple_times_per_tick(self):
        transport, calls = counting_transport(missing={"http://a/x"})
        spec = PageSpec("f", (), (XhrPoll("http://a/x", interval=0.05),), duration=1.0)
        events = run_page(spec, transport)
        assert len(events) == 20

    def test_events_nondecreasing_time(self):
        spec, transport, clock, _, _ = mre_stack(cache_on=False)
        events = run_page(spec, transport, clock)
        assert all(a.t <= b.t for a, b in zip(events, events[1:]))

    def test_deterministic_event_log(self):
        runs = []
        for _ in range(2):
            spec, transport, clock, _, _ = mre_stack(cache_on=True)
            runs.append(run_page(spec, transport, clock))
        assert runs[0] == runs[1]


class TestRedirectFollowing:
    def test_nearest_timestamp_redirect_followed_to_capture(self):
        manifest = "20090628044051\t200\timage/png\thttp://site.pt/ok.png\tinline:png!\n"
        sim = UpstreamSimulator(parse_manifest_text(manifest))
        clock = LogicalClock()
        transport = lambda req: sim.serve(req, clock.now())
        # the page asks for a timestamp the archive lacks; the backend answers
        # with a redirect to the closest capture it has
        requested = "http://a.test/wayback/20091231000000im_/http://site.pt/ok.png"
        spec = PageSpec("r", (requested,), (), duration=1.0)
        events = run_page(spec, transport, clock)
        assert [e.status for e in events] == [302, 200]
        assert events[1].url == "http://a.test/wayback/20090628044051im_/http://site.pt/ok.png"
        assert all(e.source is EventSource.NETWORK for e in events)


class TestTransportFailures:
    def test_failure_recorded_as_status_zero(self):
        def exploding(request: Request) -> Response:
            raise ConnectionError("boom")

        spec = PageSpec("x", ("http://a/1",), (), duration=1.0)
        events = run_page(spec, exploding)
        assert len(events) == 1
        assert events[0].status == 0
        assert events[0].source is EventSource.NETWORK


class TestThrottledAnswers:
    def test_relayed_429_is_fetched_again_on_the_next_firing(self):
        archive_calls = []

        def throttling_archive(request: Request) -> Response:
            archive_calls.append(request.url)
            return Response(429, (("Retry-After", "25"),))

        proxy = ReverseProxy(ProxyConfig(), throttling_archive)
        clock = LogicalClock()
        spec = PageSpec("poll", (), (XhrPoll("http://a/feed", interval=5.0),), duration=15.0)
        events = run_page(spec, lambda req: proxy.handle_request(req, clock.now()), clock)
        assert [(e.source, e.status) for e in events] == [(EventSource.NETWORK, 429)] * 3
        assert len(archive_calls) == 3


class TestBrowserCacheDecide:
    def test_200_cached_for_session(self):
        assert browser_cache_decide(Response(200, (), b"ok")) == float("inf")

    def test_404_without_header_not_cached(self):
        assert browser_cache_decide(Response(404, (), b"")) is None

    def test_404_with_public_max_age_cached(self):
        r = Response(404, (("Cache-Control", "public, max-age=600"),), b"")
        assert browser_cache_decide(r) == 600.0

    def test_no_store_never_cached(self):
        r = Response(200, (("Cache-Control", "no-store"),), b"")
        assert browser_cache_decide(r) is None

    @pytest.mark.parametrize(
        "status, lines, lifetime",
        [(200, ("public", "no-store"), None), (404, ("max-age=60", "no-store"), None), (404, ("public", "max-age=60"), 60.0)],
    )
    def test_every_cache_control_line_counts(self, status, lines, lifetime):
        r = Response(status, tuple(("Cache-Control", line) for line in lines), b"")
        assert browser_cache_decide(r) == lifetime

    def test_max_age_zero_not_cached(self):
        r = Response(404, (("Cache-Control", "max-age=0"),), b"")
        assert browser_cache_decide(r) is None

    @pytest.mark.parametrize("cache_control, lifetime", [("s-maxage=0, max-age=600", 600.0), ("s-maxage=600", None)])
    def test_private_cache_ignores_s_maxage(self, cache_control, lifetime):
        assert browser_cache_decide(Response(404, (("Cache-Control", cache_control),), b"")) == lifetime

    def test_model_expiry(self):
        model = BrowserCacheModel()
        r = Response(404, (("Cache-Control", "max-age=10"),), b"")
        model.offer("u", r, now=0.0)
        assert model.fresh_response("u", now=9.9) is not None
        assert model.fresh_response("u", now=10.0) is None

    def test_model_counts_arrival_age(self):
        model = BrowserCacheModel()
        r = Response(404, (("Cache-Control", "public, max-age=600"), ("Age", "599"), ("X-Cache", "HIT")), b"")
        model.offer("u", r, now=50.0)
        assert model.fresh_response("u", now=50.9) is not None
        assert model.fresh_response("u", now=51.0) is None


class TestLimiter:
    @staticmethod
    def next_request_source(statuses: list[int]) -> EventSource:
        """Where the request after `statuses` (network answers no browser
        cache keeps) is answered from under a min_repeats=3 limiter."""
        answers = iter(statuses + [404])
        transport = lambda req: Response(next(answers), (("Cache-Control", "no-store"),))
        spec = PageSpec("p", (), (XhrPoll("http://a/feed", interval=1.0),), duration=len(statuses) + 1.0)
        events = run_page(spec, transport, limiter=LimiterRule(min_repeats=3))
        assert [(e.source, e.status) for e in events[:-1]] == [(EventSource.NETWORK, s) for s in statuses]
        return events[-1].source

    def test_three_prior_404s_suppresses(self):
        assert self.next_request_source([404, 404, 404]) is EventSource.LIMITER_SUPPRESSED

    def test_two_prior_404s_passes(self):
        assert self.next_request_source([404, 404]) is EventSource.NETWORK

    def test_200_repeats_never_suppressed(self):
        assert self.next_request_source([200, 200, 200]) is EventSource.NETWORK

    def test_mixed_statuses_pass(self):
        assert self.next_request_source([404, 500, 404]) is EventSource.NETWORK

    def test_a_changed_status_is_never_forgotten(self):
        # the rule reads the URL's whole network history, not its latest run
        assert self.next_request_source([404, 500, 500, 500, 500]) is EventSource.NETWORK

    def test_disabled_passes(self):
        transport, calls = counting_transport(missing={"http://a/feed"})
        spec = PageSpec("p", (), (XhrPoll("http://a/feed", interval=1.0),), duration=20.0)
        events = run_page(spec, transport, limiter=None)
        assert calls.count("http://a/feed") == 20
        assert not any(e.source is EventSource.LIMITER_SUPPRESSED for e in events)

    def test_min_repeats_validation(self):
        with pytest.raises(ValueError):
            LimiterRule(min_repeats=1)

    def test_limiter_caps_network_requests(self):
        transport, calls = counting_transport(missing={"http://a/feed"})
        spec = PageSpec("p", (), (XhrPoll("http://a/feed", interval=1.0),), duration=20.0)
        events = run_page(spec, transport, limiter=LimiterRule(min_repeats=3))
        assert calls.count("http://a/feed") == 3
        suppressed = [e for e in events if e.source is EventSource.LIMITER_SUPPRESSED]
        assert len(suppressed) == 17
        assert all(e.status == 404 for e in suppressed)


class TestScenarios:
    def test_mre_shape(self):
        spec, manifest = builtin_scenario("mre")
        assert len(spec.essential_resources) == 4
        (carousel,) = spec.behaviors
        assert isinstance(carousel, CarouselLoop)
        assert carousel.period == pytest.approx(1 / 3)
        assert len(carousel.urls) == 3
        assert len(spec.distinct_urls()) == 7
        store = parse_manifest_text(manifest)
        assert len(store.records) == 7

    def test_carousel12_shape(self):
        spec, manifest = builtin_scenario("carousel12")
        (loader,) = spec.behaviors
        assert isinstance(loader, LoaderRetry)
        assert loader.count == 12
        urls = [loader.template.replace("#", str(i)) for i in range(12)]
        assert urls[0].endswith("loader-0.png")
        assert urls[11].endswith("loader-11.png")

    def test_onerror_playlist_shape(self):
        spec, _ = builtin_scenario("onerror_playlist")
        kinds = {type(b) for b in spec.behaviors}
        assert kinds == {OnErrorFallback, XhrPoll}
        (xhr,) = [b for b in spec.behaviors if isinstance(b, XhrPoll)]
        assert xhr.url.endswith(".xsl")

    def test_feed_poll_shape(self):
        spec, _ = builtin_scenario("feed_poll")
        assert len(spec.behaviors) == 2
        assert all(isinstance(b, XhrPoll) for b in spec.behaviors)

    def test_unknown_scenario(self):
        with pytest.raises(UnknownScenario):
            builtin_scenario("nope")


ALL_BEHAVIORS_TEXT = """
# one behavior of each type
name = all_four
duration = 30
essential.0 = http://a.test/page
essential.1 = http://a.test/app.js
behavior.0.type = carousel_loop
behavior.0.period = 0.5
behavior.0.urls.0 = http://a.test/img1.jpg
behavior.0.urls.1 = http://a.test/img2.jpg
behavior.1.type = loader_retry
behavior.1.template = http://a.test/loader-#.png
behavior.1.count = 4
behavior.1.cycle_period = 1.5
behavior.2.type = onerror_fallback
behavior.2.primary = http://a.test/cover.jpg
behavior.2.fallback = http://a.test/resize?img=#
behavior.2.retry_period = 2
behavior.3.type = xhr_poll
behavior.3.url = http://a.test/feed
behavior.3.interval = 5
"""


class TestSpecSerialization:
    def test_all_behavior_types(self):
        assert spec_from_text(ALL_BEHAVIORS_TEXT) == PageSpec(
            name="all_four",
            essential_resources=("http://a.test/page", "http://a.test/app.js"),
            behaviors=(
                CarouselLoop(urls=("http://a.test/img1.jpg", "http://a.test/img2.jpg"), period=0.5),
                LoaderRetry(template="http://a.test/loader-#.png", count=4, cycle_period=1.5),
                OnErrorFallback(
                    primary="http://a.test/cover.jpg", fallback="http://a.test/resize?img=#", retry_period=2.0
                ),
                XhrPoll(url="http://a.test/feed", interval=5.0),
            ),
            duration=30.0,
        )

    def test_readme_scenario_spec_parses(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("Scenario spec files use", 1)[1].split("```", 2)[1]
        feed = "http://archive.test/wayback/20210901092756/http://f.test/feed"
        assert spec_from_text(block) == PageSpec(
            name="busted_feed",
            essential_resources=("http://archive.test/wayback/20210901092756/http://f.test/",),
            behaviors=(XhrPoll(url=feed, interval=5.0),),
            duration=60.0,
        )

    def test_bad_spec_text(self):
        with pytest.raises(ConfigError):
            spec_from_text("name = x\n")
        with pytest.raises(ConfigError):
            spec_from_text("name = x\nduration = 5\nbehavior.0.type = warp\n")

    @pytest.mark.parametrize(
        "extra, unknown",
        [
            ("essentail.0 = http://a.test/page", "essentail.0"),
            ("behavior.3.intreval = 9", "behavior.3.intreval"),
            ("behavior.0.url = http://a.test/feed", "behavior.0.url"),
            ("behavior.4.url = http://a.test/feed", "behavior.4.url"),
            ("essential.first = http://a.test/page", "essential.first"),
            ("essential = http://a.test/page\nlimiter = on", "essential, limiter"),
        ],
        ids=["misspelt-list", "misspelt-field", "other-type-field", "no-such-behavior", "index-not-digits", "two"],
    )
    def test_a_key_no_field_reads_is_an_error_naming_it(self, extra, unknown):
        with pytest.raises(ConfigError, match=f"unknown scenario spec keys: {unknown}$"):
            spec_from_text(ALL_BEHAVIORS_TEXT + extra + "\n")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize(
        "key", ["duration", "behavior.0.period", "behavior.1.cycle_period", "behavior.2.retry_period",
                "behavior.3.interval"],
    )
    def test_non_finite_duration_or_period_is_refused(self, key, value):
        text = re.sub(rf"^{re.escape(key)} = .*$", f"{key} = {value}", ALL_BEHAVIORS_TEXT, flags=re.MULTILINE)
        assert text != ALL_BEHAVIORS_TEXT
        with pytest.raises(ConfigError, match=key.rsplit(".", 1)[-1]):
            spec_from_text(text)

    def test_every_builtin_scenario_is_a_spec(self):
        type_names = {cls: name for name, cls in BEHAVIOR_TYPES.items()}
        texts = []
        for name in SCENARIO_NAMES:
            spec, _ = builtin_scenario(name)
            # one key per dataclass field; a float's text reads back exactly
            lines = [f"name = {spec.name}", f"duration = {spec.duration}"]
            lines += [f"essential.{i} = {url}" for i, url in enumerate(spec.essential_resources)]
            for i, behavior in enumerate(spec.behaviors):
                lines.append(f"behavior.{i}.type = {type_names[type(behavior)]}")
                for field in dataclasses.fields(behavior):
                    key, value = f"behavior.{i}.{field.name}", getattr(behavior, field.name)
                    if isinstance(value, tuple):
                        lines += [f"{key}.{j} = {v}" for j, v in enumerate(value)]
                    else:
                        lines.append(f"{key} = {value}")
            texts.append("\n".join(lines))
            assert spec_from_text(texts[-1]) == spec, name
        # the texts hold `#` templates and URLs with the characters a query or an IA path uses
        assert all(c in "".join(texts) for c in "#[]?&=")


class TestEventsCsv:
    def test_round_trip(self, tmp_path):
        events = [
            ClientEvent(0.0, "http://a/1", EventSource.NETWORK, 200),
            ClientEvent(0.4, "http://a/2", EventSource.NETWORK, 404),
            ClientEvent(0.7, "http://a/2", EventSource.MEMORY_CACHE, 404),
        ]
        path = tmp_path / "events.csv"
        write_events_csv(events, path)
        assert read_events_csv(path) == events
        header = path.read_text().splitlines()[0]
        assert header == "t_seconds,url,source,status"

    # URLs that csv.writer quotes (comma, quote, CR, LF, CRLF) and ones it
    # leaves bare (plain, spaces, non-ASCII, empty)
    FUZZ_URLS = (
        "http://a.test/plain.png",
        "http://a.test/img?x=1,2",
        'http://a.test/say"hi".gif',
        "http://a.test/cr\rhere",
        "http://a.test/lf\nhere",
        "http://a.test/crlf\r\nhere",
        '"',
        ",",
        "http://a.test/with space ",
        " leading",
        "http://x.test/café.png",
        "http://x.test/日本/画像.jpg",
        "http://x.test/😀,\"\n",
        "",
    )

    @pytest.mark.parametrize("n", [0, 1, 2000, EVENTS_BLOCK_ROWS, 2 * EVENTS_BLOCK_ROWS + 317])
    def test_writer_matches_csv_writer_byte_for_byte(self, tmp_path, n):
        rng = random.Random(n)
        events = [
            ClientEvent(
                round(rng.uniform(0, 900), 1),
                rng.choice(self.FUZZ_URLS),
                rng.choice(list(EventSource)),
                rng.choice((200, 302, 404, 429, 503)),
            )
            for _ in range(n)
        ]
        if n == 2000:
            assert {e.url for e in events} == set(self.FUZZ_URLS)
            assert {e.source for e in events} == set(EventSource)
        path = tmp_path / "events.csv"
        write_events_csv(events, path)

        reference = tmp_path / "reference.csv"
        with open(reference, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t_seconds", "url", "source", "status"])
            for e in events:
                writer.writerow([f"{e.t:.1f}", e.url, e.source.value, e.status])
        assert path.read_bytes() == reference.read_bytes()
        assert read_events_csv(path) == events

    def test_utf8_under_an_ascii_locale(self, tmp_path):
        # the script is ASCII: a non-ASCII -c argument would itself be
        # decoded by the locale
        script = (
            "import locale, sys\n"
            "from replay_shield.workload import ClientEvent, EventSource, read_events_csv, write_events_csv\n"
            "from replay_shield.analyzer import build_report, emit_series_csv\n"
            "print(locale.getpreferredencoding(False))\n"
            "events = [ClientEvent(0.0, 'http://x.test/caf\\u00e9.png', EventSource.NETWORK, 404)]\n"
            "write_events_csv(events, sys.argv[1] + '/events.csv')\n"
            "assert read_events_csv(sys.argv[1] + '/events.csv') == events\n"
            "emit_series_csv(build_report(events), sys.argv[1] + '/series.csv')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-X", "utf8=0", "-c", script, str(tmp_path)],
            env={**os.environ, "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert codecs.lookup(proc.stdout.strip()).name == "ascii"
        assert (tmp_path / "events.csv").read_bytes().splitlines()[1] == b"0.0,http://x.test/caf\xc3\xa9.png,network,404"

    @pytest.mark.parametrize(
        "text, missing",
        [
            ("t_seconds,url,source\n0.0,http://a/1,network\n", "status"),
            ("t_seconds,url,status,kind\n0.0,http://a/1,200,network\n", "source"),
            ("", "t_seconds, url, source, status"),
        ],
        ids=["no-status", "no-source", "empty-file"],
    )
    def test_header_without_its_columns_is_a_config_error(self, tmp_path, text, missing):
        path = tmp_path / "events.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match=f"lacks column {missing}$"):
            read_events_csv(path)
