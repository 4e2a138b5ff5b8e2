"""Expected outputs, computed without calling replay_shield.

Each function here re-derives what the program should answer from the
generated inputs alone: nearest-capture redirects over the holdings, the fuzzy
key a cache-busted URL collapses to, and the event and upstream counts a
builtin scenario produces over a given simulated duration.
"""

from __future__ import annotations

import calendar
import math
import time
from dataclasses import dataclass

ARCHIVE_PATH_PREFIX = "/wayback"
INJECTED_CACHE_CONTROL = "public, max-age=600"
CACHE_BUSTER_MIN_DIGITS = 9  # all-digit query values longer than 8 digits are volatile


def ts_seconds(ts14: str) -> int:
    """Seconds since the Unix epoch for a 14-digit UTC timestamp."""
    parts = (ts14[0:4], ts14[4:6], ts14[6:8], ts14[8:10], ts14[10:12], ts14[12:14])
    return calendar.timegm(tuple(int(p) for p in parts) + (0, 0, 0))


def ts14_from_seconds(seconds: int) -> str:
    return time.strftime("%Y%m%d%H%M%S", time.gmtime(seconds))


@dataclass(frozen=True)
class Capture:
    ts14: str
    status: int
    content_type: str
    body: str


class Holdings:
    """The generated archive holdings, indexed by target URL string.

    Targets are generated already in canonical form (lower-case host, no
    port, no query, no fragment), so string equality is key equality.
    """

    def __init__(self):
        self.by_target: dict[str, list[Capture]] = {}

    def add(self, target: str, capture: Capture) -> None:
        self.by_target.setdefault(target, []).append(capture)

    def nearest_200(self, target: str, ts14: str) -> list[Capture]:
        """Every 200 capture of `target` at the minimum distance from `ts14`."""
        wanted = ts_seconds(ts14)
        best: list[Capture] = []
        best_gap = math.inf
        for cap in self.by_target.get(target, ()):
            if cap.status != 200:
                continue
            gap = abs(ts_seconds(cap.ts14) - wanted)
            if gap < best_gap:
                best, best_gap = [cap], gap
            elif gap == best_gap:
                best.append(cap)
        return best


@dataclass(frozen=True)
class Expected:
    """What the proxy must answer for one archive request."""

    status: int
    locations: frozenset[str] = frozenset()
    content_type: str = ""
    body: bytes = b""


def expected_archive_response(holdings: Holdings, ts14: str, modifier: str, target: str) -> Expected:
    """200 for an exact 200 capture, 302 to any nearest 200 capture (modifier
    kept), 404 when the target has no 200 capture at all."""
    for cap in holdings.by_target.get(target, ()):
        if cap.ts14 == ts14 and cap.status == 200:
            return Expected(200, content_type=cap.content_type, body=cap.body.encode())
    nearest = holdings.nearest_200(target, ts14)
    if nearest:
        return Expected(
            302,
            locations=frozenset(f"{ARCHIVE_PATH_PREFIX}/{c.ts14}{modifier}/{target}" for c in nearest),
        )
    return Expected(404)


def header(headers: list[tuple[str, str]], name: str) -> str | None:
    wanted = name.lower()
    for n, v in headers:
        if n.lower() == wanted:
            return v
    return None


def matches(expected: Expected, status: int, headers: list[tuple[str, str]], body: bytes) -> bool:
    """True when a proxied archive response agrees with `expected` and is a miss."""
    if status != expected.status or header(headers, "X-Cache") != "MISS":
        return False
    if status == 302:
        return header(headers, "Location") in expected.locations
    if status == 200:
        return header(headers, "Content-Type") == expected.content_type and body == expected.body
    return True


def is_shielded_404(status: int, headers: list[tuple[str, str]]) -> bool:
    """A recurring-404 answer: 404 carrying the injected Cache-Control."""
    return status == 404 and header(headers, "Cache-Control") == INJECTED_CACHE_CONTROL


def fuzzy_key(path_and_query: str) -> str:
    """The request with cache-busting query parameters (all digits, at least
    nine of them) removed and the rest sorted by name."""
    path, _, query = path_and_query.partition("?")
    kept = []
    for pair in query.split("&") if query else ():
        name, _, value = pair.partition("=")
        if value.isdigit() and len(value) >= CACHE_BUSTER_MIN_DIGITS:
            continue
        kept.append((name, pair))
    kept.sort(key=lambda p: p[0])
    return path + ("?" + "&".join(p for _, p in kept) if kept else "")


# ---------------------------------------------------------------------------
# reproduce_lab: counts each builtin scenario must produce.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Behaviour:
    period: float  # seconds between firings; the first firing is at `period`
    fetches_per_fire: int
    distinct_urls: int  # URLs the behaviour cycles through; all answer 404


# The paper's page behaviours as the builtin scenarios model them.
LAB_SCENARIOS: dict[str, tuple[int, tuple[Behaviour, ...]]] = {
    # 4 essential 200s; a 3-image carousel advancing every 1/3 s
    "mre": (4, (Behaviour(1 / 3, 1, 3),)),
    # 2 essential 200s; 12 loader images retried together, ~1098 requests/min
    "carousel12": (2, (Behaviour(12 * 60 / 1098.36, 12, 12),)),
    # 2 essential 200s; an image plus its onerror fallback every 2 s; a poll every 3 s
    "onerror_playlist": (2, (Behaviour(2.0, 2, 2), Behaviour(3.0, 1, 1))),
    # 1 essential 200; two feeds polled every 5 s
    "feed_poll": (1, (Behaviour(5.0, 1, 1), Behaviour(5.0, 1, 1))),
}

BROWSER_MAX_AGE = 600.0


@dataclass(frozen=True)
class LabCounts:
    network: int
    memory_cache: int
    upstream: int
    upstream_404: int


def fires(period: float, duration: float) -> int:
    """Firings due at period, 2*period, ... up to and including `duration`."""
    return math.floor(duration / period + 1e-6)


def expected_lab_counts(scenario: str, duration: float, cached: bool) -> LabCounts:
    """Counts for `reproduce`: cache and injection off (before) or on (after).

    Before, every fetch goes to the network and through to the upstream.
    After, the injected max-age keeps each 404 in the browser memory cache for
    the rest of the run, so each recurring URL reaches the network once.
    """
    if cached and duration >= BROWSER_MAX_AGE:
        raise ValueError("cached counts assume the run ends before the browser cache expires")
    essentials, behaviours = LAB_SCENARIOS[scenario]
    fetches = sum(fires(b.period, duration) * b.fetches_per_fire for b in behaviours)
    if not cached:
        return LabCounts(essentials + fetches, 0, essentials + fetches, fetches)
    first_fetches = sum(min(fires(b.period, duration) * b.fetches_per_fire, b.distinct_urls) for b in behaviours)
    network = essentials + first_fetches
    return LabCounts(network, fetches - first_fetches, network, first_fetches)
