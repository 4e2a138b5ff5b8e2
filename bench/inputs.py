"""Seeded inputs for the socket workloads: holdings manifests, proxy configs
and per-client request rounds, each request paired with its expected answer.

A round is the fixed list of requests one client sends before looking at the
clock again; every run is made of whole rounds, so the mix of operations is
the same in every run whatever its length.
"""

from __future__ import annotations

import random

import oracles
from oracles import ARCHIVE_PATH_PREFIX, Capture, Expected, Holdings, ts14_from_seconds

Round = list[tuple[str, Expected]]

YEAR_2000 = 946684800
YEAR_2021 = 1609459200
MODIFIERS = ("", "im_", "js_", "cs_", "mp_")
_SYLLABLES = ("ra", "dio", "co", "mer", "ci", "al", "live", "sport", "news", "pt", "mu", "se", "ar", "qui", "vo")


def _host(rng: random.Random) -> str:
    name = "".join(rng.choice(_SYLLABLES) for _ in range(3))
    return f"www.{name}{rng.randrange(100)}.{rng.choice(('pt', 'com', 'org', 'net'))}"


def _ts(rng: random.Random) -> str:
    return ts14_from_seconds(rng.randrange(YEAR_2000, YEAR_2021))


def manifest_line(target: str, cap: Capture) -> str:
    content_type = cap.content_type or "-"
    return f"{cap.ts14}\t{cap.status}\t{content_type}\t{target}\tinline:{cap.body}"


class Recurring404:
    """A few dozen never-captured resources requested over and over, the way
    the paper's pages request them: carousel and loader images by a fixed URL,
    feed polls with a fresh cache-busting timestamp on every request."""

    name = "recurring_404"
    proxy_config = "listen = 127.0.0.1:0\ncache.key_mode = fuzzy\n"
    RSS_AFTER_REQUESTS = 20_000  # about 6 s of the timed phase on a 2-core machine
    CAROUSEL_IMAGES = 6
    LOADER_IMAGES = 12
    COVER_IMAGES = 6
    FEEDS = 8
    FILLER_RECORDS = 200

    def __init__(self, seed: int):
        rng = random.Random(seed)
        pages = [(_host(rng), _ts(rng)) for _ in range(4)]
        (h1, t1), (h2, t2), (h3, t3), (h4, t4) = pages
        self.paths: list[str] = []  # fixed URLs, identical on every request
        self.paths += [f"{ARCHIVE_PATH_PREFIX}/{t1}im_/http://{h1}/img/photo{i}.jpg" for i in range(1, self.CAROUSEL_IMAGES + 1)]
        self.paths += [f"{ARCHIVE_PATH_PREFIX}/{t2}im_/http://{h2}/styles/slideshow/loader-{i}.png" for i in range(self.LOADER_IMAGES)]
        self.paths += [f"{ARCHIVE_PATH_PREFIX}/{t3}im_/http://{h3}/global/images/cover_{i}.jpg" for i in range(self.COVER_IMAGES)]
        # feed polls: '{}' takes the cache buster; some carry a stable parameter too
        self.feed_templates = [
            f"{ARCHIVE_PATH_PREFIX}/{t4}/https://d.{h4[4:]}/en/x/feed/{kind}_{i}?" + ("lang=en&_={}" if i % 2 else "_={}")
            for i, kind in enumerate(rng.choice(("u", "sys", "dc", "tv")) for _ in range(self.FEEDS))
        ]
        self.buster_base = 1_600_000_000_000 + rng.randrange(10**10)
        self.order_seed = rng.randrange(2**32)

        lines = []
        for host, ts in pages:
            lines.append(manifest_line(f"http://{host}/", Capture(ts, 200, "text/html", "<html>page</html>")))
            lines.append(manifest_line(f"http://{host}/js/app.js", Capture(ts, 200, "application/javascript", "app()")))
        for i in range(self.FILLER_RECORDS):
            host, _ = pages[i % len(pages)]
            lines.append(manifest_line(f"http://{host}/archive/{i}.html", Capture(_ts(rng), 200, "text/html", f"doc{i}")))
        self.manifest = "\n".join(lines) + "\n"

    def distinct_keys(self) -> int:
        return len({oracles.fuzzy_key(p) for p in self.paths} | {oracles.fuzzy_key(t.format(1)) for t in self.feed_templates})

    @staticmethod
    def check(expected: Expected, status: int, headers: list, body: bytes) -> bool:
        return oracles.is_shielded_404(status, headers)

    def run_problems(self, census_upstream: int, upstream_statuses: dict, expected_statuses: dict, clients: int) -> list[str]:
        """Each fuzzy key reaches the upstream at least once and at most once
        per client (clients may race on a first miss); all answers are 404."""
        keys = self.distinct_keys()
        total = sum(upstream_statuses.values())
        problems = []
        if not keys <= census_upstream <= total <= keys * clients:
            problems.append(f"upstream requests {census_upstream} after the census, {total} in all; expected {keys}..{keys * clients}")
        if set(upstream_statuses) != {404}:
            problems.append(f"upstream answered {upstream_statuses}, expected only 404s")
        return problems

    def rounds(self, client: int):
        """Endless rounds for one client: every resource once, in a per-client order."""
        rng = random.Random(self.order_seed + client)
        expected = Expected(404)
        buster = self.buster_base + client
        while True:
            items = list(self.paths) + list(self.feed_templates)
            rng.shuffle(items)
            out: Round = []
            for item in items:
                if "{}" in item:
                    buster += 2 * 137  # clients never share a buster value
                    item = item.format(buster)
                out.append((item, expected))
            yield out


class UniqueMisses:
    """Every request names a new URL, against a store of tens of thousands of
    records: mostly never-captured targets (404), some captured at other
    timestamps (302 to the nearest), some exact (200).

    The mix, the 5 captures per target and the 5% of 404 captures are a
    synthetic choice, not measured traffic: nothing in the paper or the
    repository gives these shares. The 404 majority follows the paper (in
    the builtin scenarios, 6,924 of a pass's 6,942 upstream requests answer
    404); the rest makes every round take each upstream path. Every request
    but the exact captures, 35 of 40, runs the nearest-capture scan.
    """

    name = "unique_misses"
    CAPACITY = 1000
    proxy_config = f"listen = 127.0.0.1:0\ncache.capacity = {CAPACITY}\n"
    RSS_AFTER_REQUESTS = 4_000  # the cache is full well before; about 8 s of the timed phase
    TARGETS = 4000
    ERROR_ONLY_TARGETS = 200  # targets whose every capture is a 404
    CAPTURES_PER_TARGET = 5
    # per round: never captured, other timestamp, midpoint between captures, exact, 404-only target
    MIX = {"uncaptured": 22, "other_ts": 8, "midpoint": 2, "exact": 5, "error_only": 3}

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.seed = seed
        self.hosts = [_host(rng) for _ in range(40)]
        self.holdings = Holdings()
        self.targets: list[str] = []
        lines = []
        for i in range(self.TARGETS):
            target = f"http://{self.hosts[i % len(self.hosts)]}/media/{i:05d}/{rng.choice(('a', 'b', 'c'))}{i}.{rng.choice(('png', 'jpg', 'css', 'js'))}"
            error_only = i >= self.TARGETS - self.ERROR_ONLY_TARGETS
            stamps = set()
            while len(stamps) < self.CAPTURES_PER_TARGET:
                stamps.add(rng.randrange(YEAR_2000, YEAR_2021))
            for j, sec in enumerate(sorted(stamps)):
                status = 404 if error_only or (j and rng.random() < 0.05) else 200
                cap = Capture(ts14_from_seconds(sec), status, "image/png" if status == 200 else "", f"cap-{i}-{j}" if status == 200 else "")
                self.holdings.add(target, cap)
                lines.append(manifest_line(target, cap))
            self.targets.append(target)
        rng.shuffle(lines)
        self.manifest = "\n".join(lines) + "\n"
        self.captured = self.targets[: self.TARGETS - self.ERROR_ONLY_TARGETS]
        self.error_only = self.targets[self.TARGETS - self.ERROR_ONLY_TARGETS:]
        self.exact = [(t, c) for t in self.captured for c in self.holdings.by_target[t] if c.status == 200]
        rng.shuffle(self.exact)

    check = staticmethod(oracles.matches)

    def run_problems(self, census_upstream: int, upstream_statuses: dict, expected_statuses: dict, clients: int) -> list[str]:
        """Every request misses, so the upstream answers each one, with the
        status the oracle expects."""
        if upstream_statuses != expected_statuses:
            return [f"upstream answered {upstream_statuses}, expected {expected_statuses}"]
        return []

    def _request(self, ts14: str, modifier: str, target: str) -> tuple[str, Expected]:
        expected = oracles.expected_archive_response(self.holdings, ts14, modifier, target)
        return f"{ARCHIVE_PATH_PREFIX}/{ts14}{modifier}/{target}", expected

    def rounds(self, client: int):
        """Endless rounds for one client. Never-captured targets and exact
        captures come from disjoint per-client sequences and never repeat;
        the other kinds draw a random timestamp (and modifier), so a repeat
        would need a collision among 6.6e8 seconds, about 1e-5 per run."""
        rng = random.Random(self.seed * 7919 + client)
        n = exact_drawn = 0
        while True:
            kinds = [k for k, count in self.MIX.items() for _ in range(count)]
            rng.shuffle(kinds)
            out: Round = []
            for kind in kinds:
                n += 1
                modifier = rng.choice(MODIFIERS)
                if kind == "uncaptured":
                    host = rng.choice(self.hosts)
                    target = f"http://{host}/lost/{self.seed}-{client}-{n}.{rng.choice(('png', 'gif', 'js'))}"
                    out.append(self._request(_ts(rng), modifier, target))
                elif kind == "exact":
                    target, cap = self.exact[(2 * exact_drawn + client) % len(self.exact)]
                    exact_drawn += 1
                    out.append(self._request(cap.ts14, modifier, target))
                elif kind == "error_only":
                    out.append(self._request(_ts(rng), modifier, rng.choice(self.error_only)))
                else:
                    target = rng.choice(self.captured)
                    stamps = sorted(oracles.ts_seconds(c.ts14) for c in self.holdings.by_target[target] if c.status == 200)
                    if kind == "midpoint" and len(stamps) > 1:
                        j = rng.randrange(len(stamps) - 1)
                        sec = (stamps[j] + stamps[j + 1]) // 2
                    else:
                        sec = rng.randrange(YEAR_2000, YEAR_2021)
                    out.append(self._request(ts14_from_seconds(sec), modifier, target))
            yield out
