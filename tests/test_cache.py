"""Freshness, negative caching, and LRU eviction."""

from __future__ import annotations

import random

import pytest

from replay_shield.cache import (
    CACHE_CONTROL_MEMO_SIZE,
    DELTA_SECONDS_MAX,
    CacheControlDirectives,
    CacheKey,
    CachePolicy,
    LookupState,
    ResponseCache,
    StoreOutcome,
    delta_seconds,
    parse_cache_control,
)
from replay_shield.httpmsg import Response
from replay_shield.workload import BrowserCacheModel

NO_DIRECTIVES = CacheControlDirectives()


def key(url: str) -> CacheKey:
    return CacheKey("GET", url)


def resp404() -> Response:
    return Response(404, (("Content-Type", "text/html"),), b"<h1>Not Found</h1>")


class TestParseCacheControl:
    def test_public_max_age_600(self):
        d = parse_cache_control("public, max-age=600")
        assert d.max_age == 600
        assert not (d.private or d.no_store or d.no_cache)

    def test_empty_header(self):
        d = parse_cache_control("")
        assert d == CacheControlDirectives()
        assert parse_cache_control(None) == CacheControlDirectives()

    def test_malformed_max_age_dropped(self):
        # hand-computed lenient parse: no-store recognized, max-age discarded
        d = parse_cache_control("no-store, max-age=banana")
        assert d.no_store is True
        assert d.max_age is None

    def test_case_insensitive_and_unknown_ignored(self):
        d = parse_cache_control("Public, MAX-AGE=30, s-maxage=99, immutable")
        assert d.max_age == 30

    def test_negative_max_age_dropped(self):
        assert parse_cache_control("max-age=-5").max_age is None

    def test_s_maxage_kept_apart_from_max_age(self):
        d = parse_cache_control("max-age=600, S-MAXAGE=0")
        assert (d.max_age, d.s_maxage) == (600, 0)
        assert parse_cache_control("s-maxage=-1, max-age=5").s_maxage is None
        assert parse_cache_control('s-maxage="banana"').s_maxage is None

    @pytest.mark.parametrize("value", ["+5", "1_0", "\u0665", "0x10", ""])
    def test_a_value_that_is_not_delta_seconds_is_absent(self, value):
        d = parse_cache_control(f"max-age={value}, s-maxage={value}")
        assert (d.max_age, d.s_maxage) == (None, None)

    @pytest.mark.parametrize("value", ["2147483649", "9" * 20, "9" * 5000, "0" * 5000 + "7"],
                             ids=["2^31+1", "20-nines", "5000-nines", "5000-zeros-then-7"])
    def test_a_long_value_reads_as_at_most_two_to_the_31(self, value):
        d = parse_cache_control(f"max-age={value}, s-maxage={value}")
        assert d.max_age == d.s_maxage == min(int(value.lstrip("0")[:11]), DELTA_SECONDS_MAX)

    @pytest.mark.parametrize("value", ["max-age=10, max-age=1000", "max-age=banana, max-age=10, MAX-AGE=1000"])
    def test_the_first_max_age_wins(self, value):
        assert parse_cache_control(value).max_age == 10
        assert parse_cache_control(value.replace("max-age", "s-maxage").replace("MAX-AGE", "S-MAXAGE")).s_maxage == 10

    def test_private_beats_public(self):
        d = parse_cache_control("public, private")
        assert d.private is True

    def test_memo_is_bounded_and_shares_one_parse_per_value(self):
        assert parse_cache_control.cache_info().maxsize == CACHE_CONTROL_MEMO_SIZE
        assert parse_cache_control("public, max-age=7") is parse_cache_control("public, max-age=7")


class TestDeltaSeconds:
    @pytest.mark.parametrize(
        "value, seconds",
        [("0", 0), ("007", 7), ("600", 600), ("2147483647", 2**31 - 1), ("2147483648", 2**31),
         ("2147483649", 2**31), ("12345678901", 2**31), ("9" * 5000, 2**31), ("0" * 5000, 0)],
        ids=["0", "007", "600", "2^31-1", "2^31", "2^31+1", "11-digits", "5000-nines", "5000-zeros"],
    )
    def test_ascii_digits_read_up_to_two_to_the_31(self, value, seconds):
        assert delta_seconds(value) == seconds

    @pytest.mark.parametrize("value", ["", "-5", "+5", "1_0", " 5", "1.5", "\u0665", "\u00b2", "5s"])
    def test_anything_else_is_none(self, value):
        assert delta_seconds(value) is None


class TestLookupFreshness:
    def test_fresh_within_lifetime(self):
        cache = ResponseCache(CachePolicy())
        cache.store(key("u"), resp404(), parse_cache_control("public, max-age=600"), now=0.0)
        assert cache.lookup(key("u"), now=599.0).state is LookupState.FRESH

    def test_stale_at_boundary(self):
        # fresh iff age < max_age, so exactly t+600 is stale
        cache = ResponseCache(CachePolicy())
        cache.store(key("u"), resp404(), parse_cache_control("public, max-age=600"), now=0.0)
        assert cache.lookup(key("u"), now=599.9).state is LookupState.FRESH
        assert cache.lookup(key("u"), now=600.0).state is LookupState.STALE

    def test_miss_for_absent_key(self):
        cache = ResponseCache(CachePolicy())
        assert cache.lookup(key("nope"), now=0.0).state is LookupState.MISS

    def test_max_age_zero_never_fresh(self):
        cache = ResponseCache(CachePolicy())
        cache.store(key("u"), resp404(), parse_cache_control("max-age=0"), now=5.0)
        assert cache.lookup(key("u"), now=5.0).state is LookupState.STALE

    def test_round_trip_bytes_identical(self):
        cache = ResponseCache(CachePolicy())
        original = Response(200, (("Content-Type", "image/png"), ("X-Y", "z")), b"\x89PNG...")
        cache.store(key("img"), original, NO_DIRECTIVES, now=0.0)
        got = cache.lookup(key("img"), now=1.0)
        assert got.state is LookupState.FRESH
        assert got.entry.to_response() == original


class TestStore:
    def test_404_with_header_stored_600(self):
        cache = ResponseCache(CachePolicy())
        out = cache.store(key("miss"), resp404(), parse_cache_control("public, max-age=600"), now=0.0)
        assert out is StoreOutcome.STORED
        assert cache.lookup(key("miss"), now=0.0).entry.freshness_lifetime == 600.0

    @pytest.mark.parametrize(
        "cache_control, lifetime",
        [("s-maxage=0, max-age=600", 0.0), ("max-age=0, s-maxage=30", 30.0), ("max-age=30", 30.0), ("", 600.0)],
    )
    def test_s_maxage_wins_in_the_shared_cache(self, cache_control, lifetime):
        cache = ResponseCache(CachePolicy())
        cache.store(key("u"), resp404(), parse_cache_control(cache_control), now=0.0)
        assert cache.lookup(key("u"), now=0.0).entry.freshness_lifetime == lifetime

    @pytest.mark.parametrize(
        "cache_control, expires, date, lifetime",
        [
            ("public", "Mon, 19 Oct 2026 10:00:30 GMT", "Mon, 19 Oct 2026 10:00:00 GMT", 30.0),
            ("public", "Monday, 19-Oct-26 10:01:00 GMT", "Mon Oct 19 10:00:00 2026", 60.0),
            ("public", "Mon, 19 Oct 2026 09:00:00 GMT", "Mon, 19 Oct 2026 10:00:00 GMT", 0.0),
            ("public", "0", "Mon, 19 Oct 2026 10:00:00 GMT", 0.0),
            ("public", "Mon, 19 Oct 2026 10:00:30 GMT", None, 0.0),
            ("max-age=5", "Mon, 19 Oct 2026 10:00:30 GMT", "Mon, 19 Oct 2026 10:00:00 GMT", 5.0),
            ("s-maxage=7", "0", None, 7.0),
            ("public", "Thu, 01 Jan 99999 00:00:00 GMT", "Mon, 19 Oct 2026 10:00:00 GMT", 0.0),
            ("public", f"Thu, 01 Jan {'9' * 30} 00:00:00 GMT", "Mon, 19 Oct 2026 10:00:00 GMT", 0.0),
            ("public", f"Thu, {'9' * 400} Jan 2026 00:00:00 GMT", "Mon, 19 Oct 2026 10:00:00 GMT", float(2**31)),
        ],
        ids=["imf-fixdate", "rfc850-and-asctime", "past", "unparsable", "no-date", "max-age-wins", "s-maxage-wins",
             "year-past-9999", "year-past-a-c-long", "day-past-a-float"],
    )
    def test_expires_without_max_age(self, cache_control, expires, date, lifetime):
        headers = (("Expires", expires),) + ((("Date", date),) if date else ())
        cache = ResponseCache(CachePolicy())
        cache.store(key("u"), Response(404, headers, b""), parse_cache_control(cache_control), now=0.0)
        assert cache.lookup(key("u"), now=0.0).entry.freshness_lifetime == lifetime

    def test_no_store_rejected(self):
        cache = ResponseCache(CachePolicy())
        out = cache.store(key("u"), resp404(), parse_cache_control("no-store"), now=0.0)
        assert out is StoreOutcome.REJECTED_NO_STORE
        assert cache.lookup(key("u"), now=0.0).state is LookupState.MISS

    def test_status_not_cacheable(self):
        cache = ResponseCache(CachePolicy())
        out = cache.store(key("u"), Response(429, (("Retry-After", "20"),), b""), NO_DIRECTIVES, now=0.0)
        assert out is StoreOutcome.REJECTED_STATUS
        assert cache.lookup(key("u"), now=0.0).state is LookupState.MISS

    @pytest.mark.parametrize("vary", [("*",), ("Accept, *",), ("Accept", " * ")], ids=["star", "in-a-list", "second-line"])
    def test_vary_any_never_stored(self, vary):
        cache = ResponseCache(CachePolicy())
        headers = tuple(("Vary", value) for value in vary)
        out = cache.store(key("u"), Response(404, headers, b""), parse_cache_control("max-age=600"), now=0.0)
        assert out is StoreOutcome.REJECTED_VARY_ANY
        assert cache.lookup(key("u"), now=0.0).state is LookupState.MISS

    def test_vary_on_named_fields_is_stored(self):
        cache = ResponseCache(CachePolicy())
        out = cache.store(key("u"), Response(404, (("Vary", "Accept-Encoding"),), b""), NO_DIRECTIVES, now=0.0)
        assert out is StoreOutcome.STORED

    def test_arrival_age_dates_the_entry(self):
        cache = ResponseCache(CachePolicy())
        long_ages = (("2147483649", 10.0 - 2**31), ("9" * 5000, 10.0 - 2**31))  # read as 2^31
        for age, stored_at in (("100", -90.0), (" 7 ", 3.0), (None, 10.0), ("abc", 10.0), ("-5", 10.0), ("1.5", 10.0),
                               ("+5", 10.0), *long_ages):
            headers = () if age is None else (("Age", age),)
            cache.store(key("u"), Response(404, headers, b""), NO_DIRECTIVES, now=10.0)
            assert cache.lookup(key("u"), now=10.0).entry.stored_at == stored_at, age

    def test_browser_model_takes_a_long_arrival_age(self):
        browser = BrowserCacheModel()
        browser.offer("http://a.test/x", Response(200, (("Age", "9" * 5000),), b"ok"), now=10.0)
        assert browser.fresh_response("http://a.test/x", now=10.0) == Response(200, (), b"ok")

    def test_default_lifetime_without_directives(self):
        cache = ResponseCache(CachePolicy(default_max_age=120))
        cache.store(key("u"), resp404(), NO_DIRECTIVES, now=0.0)
        assert cache.lookup(key("u"), now=0.0).entry.freshness_lifetime == 120.0

    def test_lru_eviction_two_inserts_capacity_one(self):
        # LRU oracle on a 2-insert trace: first key evicted, second present
        cache = ResponseCache(CachePolicy(capacity=1))
        cache.store(key("a"), resp404(), NO_DIRECTIVES, now=0.0)
        cache.store(key("b"), resp404(), NO_DIRECTIVES, now=1.0)
        assert cache.lookup(key("a"), now=1.0).state is LookupState.MISS
        assert cache.lookup(key("b"), now=1.0).state is LookupState.FRESH
        assert len(cache) == 1

    def test_lookup_refreshes_recency(self):
        cache = ResponseCache(CachePolicy(capacity=2))
        cache.store(key("a"), resp404(), NO_DIRECTIVES, now=0.0)
        cache.store(key("b"), resp404(), NO_DIRECTIVES, now=1.0)
        cache.lookup(key("a"), now=2.0)  # a becomes most recent
        cache.store(key("c"), resp404(), NO_DIRECTIVES, now=3.0)  # evicts b
        assert cache.lookup(key("a"), now=3.0).state is LookupState.FRESH
        assert cache.lookup(key("b"), now=3.0).state is LookupState.MISS
        assert cache.lookup(key("c"), now=3.0).state is LookupState.FRESH


class TestPolicyValidation:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            CachePolicy(capacity=0)

    def test_default_max_age_nonnegative(self):
        with pytest.raises(ValueError):
            CachePolicy(default_max_age=-1)


class TestCapacityProperty:
    def test_entry_count_never_exceeds_capacity(self):
        rng = random.Random(7234)
        for capacity in (1, 3, 8):
            cache = ResponseCache(CachePolicy(capacity=capacity))
            inserted = []
            for t in range(200):
                k = key(f"u{rng.randint(0, 20)}")
                cache.store(k, resp404(), NO_DIRECTIVES, now=float(t))
                inserted.append(k)
                assert len(cache) <= capacity

    def test_evicted_key_is_least_recently_touched(self):
        # replay the same trace against a naive recency list
        rng = random.Random(99)
        capacity = 4
        cache = ResponseCache(CachePolicy(capacity=capacity))
        recency: list[str] = []
        for t in range(400):
            name = f"u{rng.randint(0, 9)}"
            if rng.random() < 0.5:
                cache.store(key(name), resp404(), NO_DIRECTIVES, now=float(t))
                if name in recency:
                    recency.remove(name)
                recency.append(name)
                if len(recency) > capacity:
                    recency.pop(0)
            else:
                state = cache.lookup(key(name), now=float(t)).state
                assert (state is not LookupState.MISS) == (name in recency)
                if name in recency:
                    recency.remove(name)
                    recency.append(name)
