"""Hand-worked checks of the benchmark's own oracles and inputs.

Run from the repository root: python3 -m pytest bench
"""

import itertools

import inputs
import oracles
import run
from oracles import Capture, Expected, Holdings

TARGET = "http://www.example.pt/img/logo.png"


def holdings_with(*captures):
    h = Holdings()
    for cap in captures:
        h.add(TARGET, cap)
    return h


def test_ts_seconds_is_utc():
    assert oracles.ts_seconds("19700101000000") == 0
    assert oracles.ts_seconds("20000101000000") == 946684800
    assert oracles.ts14_from_seconds(946684800 + 3661) == "20000101010101"


def test_nearest_timestamp_tie_accepts_either_capture():
    early = Capture("20200101000000", 200, "image/png", "a")
    late = Capture("20200101000010", 200, "image/png", "b")
    h = holdings_with(early, late)
    exp = oracles.expected_archive_response(h, "20200101000005", "", TARGET)
    assert exp.status == 302
    assert exp.locations == {f"/wayback/20200101000000/{TARGET}", f"/wayback/20200101000010/{TARGET}"}
    for ts in ("20200101000000", "20200101000010"):
        assert oracles.matches(exp, 302, [("Location", f"/wayback/{ts}/{TARGET}"), ("X-Cache", "MISS")], b"")
    assert not oracles.matches(exp, 302, [("Location", f"/wayback/20200101000011/{TARGET}"), ("X-Cache", "MISS")], b"")


def test_redirect_location_keeps_the_modifier():
    h = holdings_with(Capture("20100101000000", 200, "image/png", "a"), Capture("20150101000000", 200, "image/png", "b"))
    exp = oracles.expected_archive_response(h, "20140601000000", "im_", TARGET)
    assert exp.locations == {f"/wayback/20150101000000im_/{TARGET}"}
    assert not oracles.matches(exp, 302, [("Location", f"/wayback/20150101000000/{TARGET}"), ("X-Cache", "MISS")], b"")


def test_nearest_ignores_non_200_captures():
    h = holdings_with(Capture("20200101000000", 404, "", ""), Capture("20000101000000", 200, "image/png", "old"))
    exp = oracles.expected_archive_response(h, "20200101000000", "", TARGET)
    assert exp.locations == {f"/wayback/20000101000000/{TARGET}"}
    only_404 = holdings_with(Capture("20200101000000", 404, "", ""))
    assert oracles.expected_archive_response(only_404, "20200101000000", "", TARGET) == Expected(404)


def test_exact_capture_is_200_with_its_body_and_a_miss():
    h = holdings_with(Capture("20200101000000", 200, "image/png", "pixels"))
    exp = oracles.expected_archive_response(h, "20200101000000", "mp_", TARGET)
    assert exp == Expected(200, content_type="image/png", body=b"pixels")
    headers = [("Content-Type", "image/png"), ("X-Cache", "MISS")]
    assert oracles.matches(exp, 200, headers, b"pixels")
    assert not oracles.matches(exp, 200, headers, b"other")
    assert not oracles.matches(exp, 200, [("Content-Type", "image/png"), ("X-Cache", "HIT")], b"pixels")


def test_uncaptured_target_is_404():
    assert oracles.expected_archive_response(Holdings(), "20200101000000", "", TARGET) == Expected(404)


def test_cache_busted_feed_urls_collapse_to_one_fuzzy_key():
    feed = "/wayback/20210901092756/https://d.livesport.com/en/x/feed/u_0_1"
    assert oracles.fuzzy_key(feed + "?_=1630488476123") == oracles.fuzzy_key(feed + "?_=1630488476456") == feed
    assert oracles.fuzzy_key(feed + "?lang=en&_=1630488476123") == oracles.fuzzy_key(feed + "?_=1630488479999&lang=en")
    assert oracles.fuzzy_key(feed + "?lang=en&_=1630488476123") == feed + "?lang=en"
    # eight digits are not a cache buster; the parameter stays
    assert oracles.fuzzy_key(feed + "?v=12345678") == feed + "?v=12345678"


def test_shielded_404_needs_the_injected_header():
    assert oracles.is_shielded_404(404, [("Cache-Control", "public, max-age=600")])
    assert not oracles.is_shielded_404(404, [])
    assert not oracles.is_shielded_404(200, [("Cache-Control", "public, max-age=600")])


def test_lab_counts_match_the_paper_figures():
    # the acceptance figures for a 60 s run: mre ~181 uncached, exactly 7 cached
    assert oracles.expected_lab_counts("mre", 60.0, cached=False).network == 4 + 180
    assert oracles.expected_lab_counts("mre", 60.0, cached=True) == oracles.LabCounts(7, 177, 7, 3)
    # carousel12 cached: 12 upstream 404s and 2 essential 200s
    assert oracles.expected_lab_counts("carousel12", 300.0, cached=True) == oracles.LabCounts(14, 457 * 12 - 12, 14, 12)
    # 300 s / 0.6555 s per cycle = 457.65 -> 457 cycles of 12 fetches
    assert oracles.expected_lab_counts("carousel12", 300.0, cached=False).network == 2 + 457 * 12
    assert oracles.expected_lab_counts("onerror_playlist", 300.0, cached=False).network == 2 + 150 * 2 + 100
    assert oracles.expected_lab_counts("feed_poll", 300.0, cached=True).network == 3


def test_recurring_workload_has_a_few_dozen_keys():
    for seed in (1, 2, 3):
        w = inputs.Recurring404(seed)
        assert w.distinct_keys() == 32
        first = next(w.rounds(0))
        assert len(first) == 32 and len({oracles.fuzzy_key(p) for p, _ in first}) == 32


def test_unique_misses_never_repeat_a_url():
    w = inputs.UniqueMisses(1)
    seen = set()
    for client in range(2):
        for round_ in itertools.islice(w.rounds(client), 50):
            for path, _ in round_:
                assert path not in seen
                seen.add(path)
    statuses = [exp.status for client in range(2) for path, exp in next(w.rounds(client))]
    assert {200, 302, 404} <= set(statuses)


def test_upstream_log_records_that_ran_together_are_all_counted(tmp_path):
    log = tmp_path / "upstream.log"
    log.write_text(
        "1.338 GET http://127.0.0.1:1/wayback/20161023193632js_/http://a.test/c.css 200 -"
        "1.339 GET http://127.0.0.1:1/wayback/20080312175104/http://a.test/x.gif 404 -\n\n"
        "1.401 GET http://127.0.0.1:1/wayback/20000114115810mp_/http://a.test/b.jpg 302 -\n"
    )
    assert run.upstream_log_statuses(log) == {200: 1, 404: 1, 302: 1}
