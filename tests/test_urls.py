"""Replay-URL parsing, formatting, and canonicalization."""

from __future__ import annotations

import dataclasses
import random
import re
from datetime import datetime, timezone
from urllib.parse import urlsplit

import pytest

from replay_shield import proxy as proxy_module
from replay_shield.cache import FUZZY_RULES, CachePolicy, KeyMode, make_cache_key
from replay_shield.httpmsg import Request, Response
from replay_shield.proxy import ProxyConfig, ReverseProxy
from replay_shield.urls import (
    EMPTY_RULES,
    NUMERIC_PARAM_DIGITS,
    FuzzyRuleSet,
    InvalidTimestamp,
    MalformedTarget,
    NoTimestampSegment,
    UrlError,
    UriR,
    canonical_form,
    canonicalize,
    format_query,
    format_urim,
    fuzzy_key_of,
    fuzzy_reduce,
    parse_urim,
    parse_urir,
    strip_query_text,
    timestamp14_datetime,
    validate_timestamp14,
)

# Real replay URLs observed in the wild; used as round-trip fixtures.
REPLAY_URL_FIXTURES = [
    "https://arquivo.pt/wayback/20131105212033js_/http://esdica.pt/js/slider/jquery.advancedSlider.min.js",
    "https://arquivo.pt/wayback/20131105211447/http://esdica.pt/imagens/banners/img03b.jpg",
    "https://arquivo.pt/wayback/20131105211447/http://esdica.pt/",
    "https://arquivo.pt/wayback/20090628044051im_/http://www.radiocomercial.iol.pt/styles/slideshow/loader-0.png",
    "https://arquivo.pt/wayback/20090628052553js_/http://www.radiocomercial.iol.pt/jscript/slideshow/slideshow.js",
    "https://arquivo.pt/wayback/20090628044051/http://www.radiocomercial.iol.pt/",
    "https://arquivo.pt/wayback/20100803165224mp_/http://www.radiocomercial.iol.pt/global_aspx/resize.aspx",
    "https://arquivo.pt/wayback/20100803165224mp_/http://www.radiocomercial.iol.pt/xsl_files/includes/nowplaying.xsl",
    "https://arquivo.pt/wayback/20100803165224/http://www.radiocomercial.iol.pt/",
    "https://web.archive.org/web/20100822133654/http://www.radiocomercial.iol.pt/",
    "https://web.archive.org/web/20210901092756/https://d.livesport.com/en/x/feed/u_0_1",
    "https://web.archive.org/web/20210901092756/https://d.livesport.com/en/x/feed/sys_1",
    "https://web.archive.org/web/20210901092755/https://www.livesport.com/en/",
]


def oracle_canonical_key(url: str) -> str:
    """Independent canonicalization: urlsplit-based, no shared code with the package."""
    parts = urlsplit(url)
    host = (parts.hostname or "").lower()
    port = parts.port
    if port in (80, 443) and port == {"http": 80, "https": 443}[parts.scheme.lower()]:
        port = None
    rev = ",".join(host.split(".")[::-1])
    if port is not None:
        rev += f":{port}"
    path = parts.path or "/"
    key = rev + ")" + path
    if parts.query:
        pairs = []
        for seg in parts.query.split("&"):
            if "=" in seg:
                pairs.append(tuple(seg.split("=", 1)))
            else:
                pairs.append((seg, None))
        pairs.sort(key=lambda p: p[0])
        key += "?" + "&".join(n if v is None else f"{n}={v}" for n, v in pairs)
    return key


def oracle_strip_then_key(url: str, names: set[str]) -> str:
    """Manual param strip + independent canonicalization."""
    parts = urlsplit(url)
    kept = [seg for seg in parts.query.split("&") if seg and seg.split("=", 1)[0] not in names]
    base = url.split("?")[0].split("#")[0]
    return oracle_canonical_key(base + ("?" + "&".join(kept) if kept else ""))


class TestParseUrim:
    def test_arquivo_image_modifier(self):
        m = parse_urim(
            "https://arquivo.pt/wayback/20090628044051im_/http://www.radiocomercial.iol.pt/styles/slideshow/loader-0.png"
        )
        assert m.archive_prefix == "https://arquivo.pt/wayback"
        assert m.timestamp14 == "20090628044051"
        assert m.modifier == "im_"
        assert m.target.format() == "http://www.radiocomercial.iol.pt/styles/slideshow/loader-0.png"

    def test_ia_no_modifier(self):
        m = parse_urim("https://web.archive.org/web/20100822133654/http://www.radiocomercial.iol.pt/")
        assert m.modifier == ""
        assert m.timestamp14 == "20100822133654"
        assert m.archive_prefix == "https://web.archive.org/web"

    def test_missing_timestamp_segment(self):
        with pytest.raises(NoTimestampSegment):
            parse_urim("https://example.org/nopath/http://a.com/")

    def test_invalid_calendar_datetime(self):
        with pytest.raises(InvalidTimestamp):
            parse_urim("https://arquivo.pt/wayback/20091328044051/http://a.com/")

    def test_target_without_scheme(self):
        with pytest.raises(MalformedTarget):
            parse_urim("https://arquivo.pt/wayback/20090628044051/www.example.org/x")

    def test_unknown_modifier_is_opaque(self):
        m = parse_urim("https://arquivo.pt/wayback/20090628044051fw_/http://a.com/x")
        assert m.modifier == "fw_"

    def test_splits_at_first_timestamp_segment(self):
        m = parse_urim("https://a.pt/wb/20090628044051/http://b.com/20011231235959/page")
        assert m.archive_prefix == "https://a.pt/wb"
        assert m.target.path == "/20011231235959/page"


class TestFormatUrim:
    def test_fig1_banner_url(self):
        m = parse_urim("https://arquivo.pt/wayback/20131105211447/http://esdica.pt/")
        assert format_urim(m) == "https://arquivo.pt/wayback/20131105211447/http://esdica.pt/"

    @pytest.mark.parametrize("url", REPLAY_URL_FIXTURES)
    def test_round_trip(self, url):
        assert format_urim(parse_urim(url)) == url

    def test_modifier_has_no_separator(self):
        s = format_urim(
            parse_urim(
                "https://arquivo.pt/wayback/20090628044051im_/http://www.radiocomercial.iol.pt/styles/slideshow/loader-0.png"
            )
        )
        assert "/20090628044051im_/http://" in s


class TestCanonicalize:
    def test_case_port_fragment_collapse(self):
        a = parse_urir("HTTP://Esdica.PT:80/imagens/banners/img03b.jpg#x")
        b = parse_urir("http://esdica.pt/imagens/banners/img03b.jpg")
        assert canonicalize(a) == canonicalize(b)
        assert canonicalize(a) == oracle_canonical_key("http://esdica.pt/imagens/banners/img03b.jpg")

    def test_query_order_symmetry(self):
        a = parse_urir("http://a.com/p?b=2&a=1")
        b = parse_urir("http://a.com/p?a=1&b=2")
        assert canonicalize(a) == canonicalize(b)

    def test_distinct_paths_distinct_keys(self):
        assert canonicalize(parse_urir("http://a.com/p?a=1")) != canonicalize(
            parse_urir("http://a.com/q?a=1")
        )

    def test_host_reversal_shape(self):
        key = canonicalize(parse_urir("http://www.example.org/a"))
        assert key == "org,example,www)/a"

    def test_non_default_port_kept(self):
        key = canonicalize(parse_urir("http://a.com:8080/p"))
        assert key == "com,a:8080)/p"

    def test_idempotent_on_canonical_form(self):
        u = parse_urir("http://A.com:80/p?b=2&a=1#frag")
        once = canonical_form(u)
        assert canonical_form(once) == once
        assert canonicalize(once) == canonicalize(u)


class TestFuzzyReduce:
    def test_long_numeric_param_dropped(self):
        rules = FuzzyRuleSet(strip_numeric_only_params=True)
        u = parse_urir("http://a.com/feed?ts=1630489675123")
        assert fuzzy_reduce(u, rules) == oracle_strip_then_key("http://a.com/feed?ts=1630489675123", {"ts"})
        assert fuzzy_reduce(u, rules) == canonicalize(parse_urir("http://a.com/feed"))

    def test_empty_rules_equal_canonicalize(self):
        u = parse_urir("http://a.com/feed?ts=1630489675123&x=y")
        assert fuzzy_reduce(u, FuzzyRuleSet()) == canonicalize(u)

    def test_short_numeric_param_retained(self):
        rules = FuzzyRuleSet(strip_numeric_only_params=True)
        u = parse_urir("http://a.com/feed?ts=9")
        assert fuzzy_reduce(u, rules) == canonicalize(u)
        # boundary: exactly threshold digits is retained, threshold+1 is dropped
        at = parse_urir("http://a.com/feed?ts=12345678")
        over = parse_urir("http://a.com/feed?ts=123456789")
        assert fuzzy_reduce(at, rules) == canonicalize(at)
        assert fuzzy_reduce(over, rules) == canonicalize(parse_urir("http://a.com/feed"))

    def test_named_param_dropped(self):
        rules = FuzzyRuleSet(strip_params=frozenset({"sid"}))
        u = parse_urir("http://a.com/p?sid=abc&x=1")
        assert fuzzy_reduce(u, rules) == canonicalize(parse_urir("http://a.com/p?x=1"))

    def test_never_alters_scheme_host_path(self):
        rules = FuzzyRuleSet(strip_params=frozenset({"a"}), strip_numeric_only_params=True)
        u = parse_urir("http://a.com/keep/this?a=1&b=123456789012")
        key = fuzzy_reduce(u, rules)
        assert key.startswith("com,a)/keep/this")

    def test_idempotent(self):
        rules = FuzzyRuleSet(strip_numeric_only_params=True)
        u = parse_urir("http://a.com/feed?ts=1630489675123&q=z")
        from dataclasses import replace

        stripped = replace(u, query=tuple(p for p in u.query if not rules.strips(*p)))
        assert fuzzy_reduce(stripped, rules) == fuzzy_reduce(u, rules)


def random_url(rng: random.Random) -> str:
    host = rng.choice(["example.org", "www.example.org", "a.b.c.test", "site.pt"])
    scheme = rng.choice(["http", "https"])
    segs = "/".join(rng.choice(["img", "js", "css", "p%20q", "loader-3.png"]) for _ in range(rng.randint(1, 3)))
    parts = f"{scheme}://{host}/{segs}"
    if rng.random() < 0.4:
        names = rng.sample(["a", "b", "ts", "z"], k=rng.randint(1, 3))
        parts += "?" + "&".join(f"{n}={rng.randint(0, 9)}" for n in names)
    return parts


def random_edge_url(rng: random.Random) -> str:
    """A URL from the edges of key derivation: cache busters of 9 digits or
    more, values of exactly NUMERIC_PARAM_DIGITS digits, parameters without a
    value, empty "&&" segments, a fragment holding "?" or "&", default and other
    ports, uppercase hosts, and URLs that do not parse (an empty host, another
    scheme). The pools are small, so URLs often differ in one segment only."""

    def digits(n: int) -> str:
        return "".join(rng.choice("0123456789") for _ in range(n))

    scheme = rng.choice(["http", "https", "HTTP", "ftp"])
    host = rng.choice(["example.org", "Example.ORG", "a.b.test", ""])
    port = rng.choice(["", "", ":80", ":443", ":8080", ":"])
    path = rng.choice(["", "/", "/feed", "/img/a%20b.png", "/save/_embed/http://x/p"])
    segments = [
        rng.choice([
            f"_={digits(13)}",
            f"v={digits(rng.randint(NUMERIC_PARAM_DIGITS + 1, 12))}",
            f"n={digits(NUMERIC_PARAM_DIGITS)}",
            "flag",
            "",
            "a=1",
            "b=",
        ])
        for _ in range(rng.randint(0, 4))
    ]
    query = "?" + "&".join(segments) if segments or rng.random() < 0.2 else ""
    fragment = rng.choice(["", "", "#top", "#x?y=1", f"#a&_={digits(13)}", "#"])
    return f"{scheme}://{host}{port}{path}{query}{fragment}"


def parses(url: str) -> bool:
    try:
        parse_urir(url)
    except UrlError:
        return False
    return True


class TestStripQueryText:
    @pytest.mark.parametrize(
        "url, stripped",
        [
            ("http://h/p", "http://h/p"),
            ("http://h/p?_=1234567890", "http://h/p"),
            ("http://h/p?a=1&_=1234567890&b", "http://h/p?a=1&b"),
            ("http://h/p?n=12345678", "http://h/p?n=12345678"),
            ("http://h/p?", "http://h/p"),
            # a lone empty segment left: "http://h/p?" would read as no query
            ("http://h/p?&_=123456789", "http://h/p?&_=123456789"),
            ("http://h/p?flag&&_=123456789", "http://h/p?flag&"),
            ("http://h/p#x?_=1234567890", "http://h/p#x?_=1234567890"),
            ("http://h/p?_=123456789#a&_=123456789", "http://h/p#a&_=123456789"),
        ],
    )
    def test_cases(self, url, stripped):
        assert strip_query_text(url, FUZZY_RULES) == stripped

    @pytest.mark.parametrize("rules", [EMPTY_RULES, FUZZY_RULES], ids=["canonical", "fuzzy"])
    def test_the_text_has_the_urls_key(self, rules):
        """The stripped text has the URL's key, or, when the URL does not parse,
        does not parse either; the pool holds strips that leave one empty segment."""
        rng = random.Random(29)
        pool = ["http://a.test?_=1697000000000&", "http://a.test/p?&_=1697000000000#x", "http://a.test/p?&"]
        pool += [random_edge_url(rng) for _ in range(5000)]
        for url in pool:
            stripped = strip_query_text(url, rules)
            if parses(url):
                assert fuzzy_key_of(stripped, rules) == fuzzy_key_of(url, rules), url
            else:
                assert not parses(stripped), url

    def test_same_text_parses_alike_with_the_same_key(self):
        rng = random.Random(17)
        groups: dict[str, set[str]] = {}
        for _ in range(3000):
            url = random_edge_url(rng)
            groups.setdefault(strip_query_text(url, FUZZY_RULES), set()).add(url)
        merged = [urls for urls in groups.values() if len(urls) > 1]
        assert len(merged) > 50
        for urls in merged:
            if parses(next(iter(urls))):
                assert all(parses(u) for u in urls)
                assert len({fuzzy_key_of(u, FUZZY_RULES) for u in urls}) == 1
            else:
                assert not any(parses(u) for u in urls)


class TestKeyMemo:
    @pytest.mark.parametrize("mode", list(KeyMode))
    def test_the_key_a_request_uses_is_make_cache_key(self, mode, monkeypatch):
        policy = CachePolicy(key_mode=mode)
        proxy = ReverseProxy(ProxyConfig(policy=policy), lambda request: Response(404))
        derived = []
        derive = proxy_module.make_cache_key
        monkeypatch.setattr(proxy_module, "make_cache_key", lambda url, p: derived.append(url) or derive(url, p))
        used = []
        lookup = proxy.cache.lookup
        proxy.cache.lookup = lambda key, now: used.append(key) or lookup(key, now)

        rng = random.Random(6)
        pool = [random_edge_url(rng) for _ in range(300)]

        def redrawn(digits: re.Match) -> str:
            return "=" + "".join(rng.choice("0123456789") for _ in digits[1])

        seen: set[str] = set()
        memo_hits = new_url_memo_hits = 0
        for _ in range(3000):
            # a pooled URL, its busters drawn again
            url = re.sub(r"=(\d{9,})", redrawn, rng.choice(pool))
            used.clear()
            derivations = len(derived)
            if proxy.handle_request(Request("GET", url), 0.0).status == 400:
                continue  # no scheme or host: never keyed
            assert set(used) == {make_cache_key(url, policy)}, url
            if len(derived) == derivations:
                memo_hits += 1
                new_url_memo_hits += url not in seen
            seen.add(url)
        # only fuzzy keys share a memo entry between two URLs: the stripped form
        assert (memo_hits > 0, new_url_memo_hits > 0) == (mode is not KeyMode.EXACT, mode is KeyMode.FUZZY)


class TestProperties:
    def test_parse_format_stability(self):
        rng = random.Random(44051)
        for _ in range(300):
            url = random_url(rng)
            u = parse_urir(url)
            assert parse_urir(u.format()) == u

    def test_canonicalize_matches_oracle_on_random_urls(self):
        rng = random.Random(165224)
        for _ in range(300):
            url = random_url(rng)
            assert canonicalize(parse_urir(url)) == oracle_canonical_key(url)


def strptime_utc(ts: str) -> datetime | None:
    """The reference parse: strptime's datetime in UTC, or None where it raises."""
    try:
        return datetime.strptime(ts, "%Y%m%d%H%M%S").replace(tzinfo=timezone.utc)
    except ValueError:
        return None


def parse_or_none(ts: str) -> datetime | None:
    try:
        parsed = timestamp14_datetime(ts)
    except InvalidTimestamp:
        parsed = None
    try:
        validate_timestamp14(ts)
    except InvalidTimestamp:
        assert parsed is None, ts
    else:
        assert parsed is not None, ts
    return parsed


class TestTimestamp14:
    @pytest.mark.parametrize(
        "ts",
        [
            "20201301000000",  # month 13
            "20200001000000",  # month 00
            "20200100000000",  # day 00
            "20200230000000",  # Feb 30
            "20200229000000",  # Feb 29 of a leap year
            "20190229000000",  # Feb 29 of a common year
            "20200101240000",  # hour 24
            "20200101006000",  # minute 60
            "20200101000060",  # second 60
            "20200101000061",  # second 61
            "00000101000000",  # year 0000
            "20201231235959",
            "00010101000000",
            "99991231235959",
            # other Unicode digits: strptime takes them only where its pattern has \d
            "\u0662\u0660\u0662\u0660\u0660\u0661\u0660\u0661\u0660\u0660\u0660\u0660\u0660\u0660",
            "\u0662\u0660\u0662\u06600101000000",  # the year
            "202001010000\u0660\u0665",  # the second's first digit
            "2020010100000\u0665",  # the second's last digit
            "20200\u066101000000",  # the month
            "202001\u0661\u0665000000",  # the day's first digit
            "2020011\u0665000000",  # the day's last digit
            "\u00b20200101000000",  # a superscript: a digit, but not a decimal one
        ],
    )
    def test_agrees_with_strptime(self, ts):
        assert parse_or_none(ts) == strptime_utc(ts)

    def test_agrees_with_strptime_on_a_random_sweep(self):
        rng = random.Random(1414)
        accepted = 0
        for _ in range(4000):
            fields = (
                rng.choice([0, 1, 1999, 2000, 2019, 2020, 2100, 9999, rng.randint(0, 9999)]),
                rng.randint(0, 13),
                rng.randint(0, 32),
                rng.randint(0, 25),
                rng.randint(0, 61),
                rng.randint(0, 62),
            )
            ts = "%04d%02d%02d%02d%02d%02d" % fields
            expected = strptime_utc(ts)
            assert parse_or_none(ts) == expected, ts
            accepted += expected is not None
        assert 1000 < accepted < 3000  # both outcomes are well represented

    @pytest.mark.parametrize("ts", ["2020010100000", "202001010000000", "2020010100000x", "2020-1-1000000"])
    def test_not_fourteen_digits(self, ts):
        with pytest.raises(InvalidTimestamp, match="14 digits"):
            timestamp14_datetime(ts)


def old_canonical_form(u: UriR) -> UriR:
    """canonical_form as a dataclasses.replace copy, the formula keys were defined by."""
    port = None if u.port == {"http": 80, "https": 443}.get(u.scheme) else u.port
    return dataclasses.replace(
        u, port=port, path=u.path or "/", query=tuple(sorted(u.query, key=lambda p: p[0])), fragment=None
    )


def old_canonicalize(u: UriR) -> str:
    c = old_canonical_form(u)
    rev_host = ",".join(reversed(c.host.split(".")))
    port_part = f":{c.port}" if c.port is not None else ""
    query_part = "?" + format_query(c.query) if c.query else ""
    return f"{rev_host}{port_part}){c.path}{query_part}"


def old_fuzzy_reduce(u: UriR, rules: FuzzyRuleSet) -> str:
    return old_canonicalize(dataclasses.replace(u, query=tuple(p for p in u.query if not rules.strips(*p))))


KEY_INPUTS = [
    "http://Example.org:80/a?b=2&a=1#frag",  # default port, fragment
    "https://example.org:443/",  # default https port
    "https://example.org:80/",  # another scheme's default port is kept
    "http://example.org:8080/p",  # explicit port
    "http://example.org",  # empty path
    "http://example.org?x=1",  # empty path with a query
    "http://example.org/#",  # empty fragment
    "http://example.org/p?b=1&a=2&b=0&a=9",  # repeated names keep their order
    "http://example.org/p?a&a=&a=1&flag",  # None-valued params
    "http://example.org/feed?_=1630454400123&cb=1&x",  # a cache-buster
    "http://example.org/feed?ts=123456789012&sid=abc",  # stripped by every rule set but the empty one
    "http://example.org/feed?ts=123456789012",  # nothing kept once stripped
]
RULE_SETS = [
    EMPTY_RULES,
    FuzzyRuleSet(strip_numeric_only_params=True),
    FuzzyRuleSet(strip_params=frozenset({"sid", "cb", "ts"})),
]


class TestKeysWithoutCopies:
    @pytest.mark.parametrize("url", KEY_INPUTS)
    def test_canonicalize_equals_the_copying_formula(self, url):
        u = parse_urir(url)
        assert canonical_form(u) == old_canonical_form(u)
        assert canonicalize(u) == canonicalize(canonical_form(u)) == old_canonicalize(u)

    @pytest.mark.parametrize("rules", RULE_SETS)
    @pytest.mark.parametrize("url", KEY_INPUTS)
    def test_fuzzy_reduce_equals_the_copying_formula(self, url, rules):
        u = parse_urir(url)
        assert fuzzy_reduce(u, rules) == old_fuzzy_reduce(u, rules)

    def test_random_urls(self):
        rng = random.Random(2212)
        rules = FuzzyRuleSet(strip_params=frozenset({"a"}), strip_numeric_only_params=True)
        for _ in range(500):
            u = parse_urir(random_url(rng))
            assert canonicalize(u) == old_canonicalize(u)
            assert fuzzy_reduce(u, rules) == old_fuzzy_reduce(u, rules)
