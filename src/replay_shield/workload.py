"""Deterministic simulator of pathological replayed-page behaviors.

A page is a declarative spec: resources fetched once at load plus behaviors
that keep issuing requests on a schedule (carousel loops, loader retries,
onerror fallbacks, XHR polls). A behavior is one dataclass that owns its
`period`, the URLs it can request (`request_urls`) and its firing step: `run`
returns a generator that does one firing's fetches per `next()`, its state
held in local variables. Time advances in 0.1s ticks on a logical clock; the
transport has zero latency, so request rates are purely schedule-driven and
two runs over the same upstream state produce identical event logs.

Every would-be request consults the browser memory-cache model first, then the
optional repeat limiter, and only then the transport.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path
from typing import Callable, Iterator, Sequence
from urllib.parse import urljoin

from . import configtext
from .cache import CachedResponse, cache_control_of, cache_entry
from .configtext import ConfigError
from .httpmsg import Request, Response

TICK = 0.1
_EPS = 1e-9
_MAX_REDIRECTS = 5

Transport = Callable[[Request], Response]
# one logical resource fetch at the current simulated time, redirects followed
Fetch = Callable[[str], Response]


class UnknownScenario(ValueError):
    pass


class LogicalClock:
    """Simulation time source; the workload loop is the only writer."""

    def __init__(self):
        self._now = 0.0

    def now(self) -> float:
        return self._now

    def set(self, t: float) -> None:
        self._now = t


def _check_period(name: str, value: float) -> None:
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be a finite number > 0")


@dataclass(frozen=True)
class CarouselLoop:
    """Requests the next URL of a cycle every `period` seconds."""

    urls: tuple[str, ...]
    period: float

    def __post_init__(self):
        _check_period("period", self.period)
        if not self.urls:
            raise ValueError("carousel needs at least one URL")

    def request_urls(self) -> tuple[str, ...]:
        return self.urls

    def run(self, fetch: Fetch) -> Iterator[None]:
        for url in itertools.cycle(self.urls):
            fetch(url)
            yield


@dataclass(frozen=True)
class LoaderRetry:
    """Each cycle re-requests every templated URL that has not yet returned 200.

    `template` contains a `#` placeholder replaced by 0..count-1.
    """

    template: str
    count: int
    cycle_period: float

    def __post_init__(self):
        _check_period("cycle_period", self.cycle_period)
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if "#" not in self.template:
            raise ValueError("template needs a '#' placeholder")

    @property
    def period(self) -> float:
        return self.cycle_period

    def request_urls(self) -> tuple[str, ...]:
        return tuple(self.template.replace("#", str(i)) for i in range(self.count))

    def run(self, fetch: Fetch) -> Iterator[None]:
        pending = self.request_urls()
        while True:
            pending = [url for url in pending if fetch(url).status != 200]
            yield


@dataclass(frozen=True)
class OnErrorFallback:
    """Requests `primary`; on a non-200 also requests `fallback` (a `#` in it
    stands for the primary URL), retrying both every `retry_period` seconds
    until the primary succeeds."""

    primary: str
    fallback: str
    retry_period: float

    def __post_init__(self):
        _check_period("retry_period", self.retry_period)

    @property
    def period(self) -> float:
        return self.retry_period

    def request_urls(self) -> tuple[str, ...]:
        return self.primary, self.fallback.replace("#", self.primary)

    def run(self, fetch: Fetch) -> Iterator[None]:
        primary, fallback = self.request_urls()
        while fetch(primary).status != 200:
            fetch(fallback)
            yield
        while True:
            yield


@dataclass(frozen=True)
class XhrPoll:
    """Unconditional fixed-interval request."""

    url: str
    interval: float

    def __post_init__(self):
        _check_period("interval", self.interval)

    @property
    def period(self) -> float:
        return self.interval

    def request_urls(self) -> tuple[str, ...]:
        return (self.url,)

    def run(self, fetch: Fetch) -> Iterator[None]:
        while True:
            fetch(self.url)
            yield


Behavior = CarouselLoop | LoaderRetry | OnErrorFallback | XhrPoll

# a spec's `behavior.N.type` names the class; its dataclass fields are the
# keys `behavior.N.<field>` that spec_from_text reads
BEHAVIOR_TYPES: dict[str, type[Behavior]] = {
    "carousel_loop": CarouselLoop,
    "loader_retry": LoaderRetry,
    "onerror_fallback": OnErrorFallback,
    "xhr_poll": XhrPoll,
}


@dataclass(frozen=True)
class PageSpec:
    name: str
    essential_resources: tuple[str, ...]
    behaviors: tuple[Behavior, ...]
    duration: float

    def __post_init__(self):
        _check_period("duration", self.duration)

    def distinct_urls(self) -> set[str]:
        return set(self.essential_resources).union(*(b.request_urls() for b in self.behaviors))


@dataclass(frozen=True)
class LimiterRule:
    """Client-side guard: once a URL has returned the same non-200 status
    `min_repeats` times, replay the prior response instead of hitting the network."""

    min_repeats: int = 3

    def __post_init__(self):
        if self.min_repeats < 2:
            raise ValueError("min_repeats must be >= 2")


class EventSource(str, Enum):
    NETWORK = "network"
    MEMORY_CACHE = "memory_cache"
    LIMITER_SUPPRESSED = "limiter_suppressed"


@dataclass(frozen=True)
class ClientEvent:
    t: float
    url: str
    source: EventSource
    status: int


def browser_cache_decide(response: Response) -> float | None:
    """Lifetime to cache `response` under, or None for do-not-cache.

    Browsers keep 200s in the memory cache for the whole session; error
    responses are kept only when Cache-Control grants them a positive max-age.
    A browser cache is private, so s-maxage does not apply to it.
    """
    directives = cache_control_of(response)
    if directives.no_store:
        return None
    if response.status == 200:
        return math.inf
    if directives.max_age is not None and directives.max_age > 0:
        return float(directives.max_age)
    return None


class BrowserCacheModel:
    def __init__(self):
        self.entries: dict[str, CachedResponse] = {}

    def fresh_response(self, url: str, now: float) -> Response | None:
        entry = self.entries.get(url)
        if entry is not None and entry.is_fresh(now):
            return entry.to_response()
        return None

    def offer(self, url: str, response: Response, now: float) -> None:
        lifetime = browser_cache_decide(response)
        if lifetime is not None:
            self.entries[url] = cache_entry(response, now, lifetime)


class _PageRun:
    def __init__(self, transport: Transport, limiter: LimiterRule | None, clock: LogicalClock):
        self.transport = transport
        self.limiter = limiter
        self.clock = clock
        self.browser_cache = BrowserCacheModel()
        self.events: list[ClientEvent] = []
        # url -> (last network response, n): n counts the URL's network
        # answers while all of them had one status, and is 0 once they differ
        self.network: dict[str, tuple[Response, int]] = {}

    def fetch(self, url: str) -> Response:
        """One logical resource fetch at the clock's time, following redirects."""
        t = self.clock.now()
        response = self._request_once(url, t)
        for _ in range(_MAX_REDIRECTS):
            if response.status not in (301, 302, 303, 307, 308):
                break
            location = response.header("Location")
            if not location:
                break
            url = urljoin(url, location)
            response = self._request_once(url, t)
        return response

    def _request_once(self, url: str, t: float) -> Response:
        cached = self.browser_cache.fresh_response(url, t)
        if cached is not None:
            self.events.append(ClientEvent(t, url, EventSource.MEMORY_CACHE, cached.status))
            return cached

        last, n = self.network.get(url, (None, 0))
        if self.limiter is not None and n >= self.limiter.min_repeats and last.status != 200:
            self.events.append(ClientEvent(t, url, EventSource.LIMITER_SUPPRESSED, last.status))
            return last

        try:
            response = self.transport(Request("GET", url))
        except Exception:
            response = Response(0)
        self.events.append(ClientEvent(t, url, EventSource.NETWORK, response.status))
        same = last is None or (n and last.status == response.status)
        self.network[url] = (response, n + 1 if same else 0)
        self.browser_cache.offer(url, response, t)
        return response


def run_page(
    spec: PageSpec,
    transport: Transport,
    clock: LogicalClock | None = None,
    limiter: LimiterRule | None = None,
) -> list[ClientEvent]:
    """Simulate the page for its duration; returns the complete event log.

    A behavior with period p fires for the k-th time on the first tick at or
    after k*p, so sub-tick periods fire several times in one tick.
    """
    clock = clock or LogicalClock()
    page = _PageRun(transport, limiter, clock)
    runs = [(b.period, b.run(page.fetch)) for b in spec.behaviors]
    fired = [0] * len(runs)

    clock.set(0.0)
    for url in spec.essential_resources:
        page.fetch(url)

    ticks = int(round(spec.duration / TICK))
    for tick in range(1, ticks + 1):
        t = tick * TICK
        clock.set(t)
        for i, (period, run) in enumerate(runs):
            while (fired[i] + 1) * period <= t + _EPS:
                next(run)
                fired[i] += 1
    return page.events


EVENT_COLUMNS = ("t_seconds", "url", "source", "status")
# rows joined per write: writes of tens of KB, while the joined block stays
# small next to the event list it comes from (1,024 rows wrote no faster and
# raised the peak RSS of `reproduce --both` by 1%)
EVENTS_BLOCK_ROWS = 512


def _csv_field(text: str) -> str:
    """`text` as csv.writer's default dialect writes it: quoted, inner quotes
    doubled, only when it holds a comma, a quote, CR or LF."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_events_csv(events: Sequence[ClientEvent], path: str | Path) -> None:
    """The bytes csv.writer would write, built from one formatted row tail
    per distinct (url, source, status): scenarios repeat a few URLs often."""
    tails: dict[tuple[str, EventSource, int], str] = {}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(EVENT_COLUMNS) + "\r\n")
        for start in range(0, len(events), EVENTS_BLOCK_ROWS):
            rows = []
            for e in events[start : start + EVENTS_BLOCK_ROWS]:
                key = (e.url, e.source, e.status)
                tail = tails.get(key)
                if tail is None:
                    tail = tails[key] = f",{_csv_field(e.url)},{e.source.value},{e.status}\r\n"
                rows.append(f"{e.t:.1f}{tail}")
            fh.write("".join(rows))


# what read_events_csv says a bad value in a typed column is not
_EVENT_COLUMN_KINDS = {
    "t_seconds": "a finite number",
    "source": "one of " + ", ".join(s.value for s in EventSource),
    "status": "an integer",
}


def read_events_csv(path: str | Path) -> list[ClientEvent]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in EVENT_COLUMNS if c not in (reader.fieldnames or ())]
        if missing:
            raise ConfigError(f"{path}: events CSV header lacks column {', '.join(missing)}")
        events = []
        for row in reader:
            # `column` names the value being read, for the error; a column a
            # short row does not reach reads None, a TypeError
            try:
                column = "t_seconds"
                t = float(row[column])
                if not math.isfinite(t):
                    raise ValueError
                column = "source"
                source = EventSource(row[column])
                column = "status"
                status = int(row[column])
            except (TypeError, ValueError):
                raise ConfigError(
                    f"{path} line {reader.line_num}: {column} {row[column]!r} is not {_EVENT_COLUMN_KINDS[column]}"
                ) from None
            events.append(ClientEvent(t, row["url"], source, status))
        return events


# ---------------------------------------------------------------------------
# Canned scenarios modeled on pages observed misbehaving in real archives.
# ---------------------------------------------------------------------------

ARCHIVE_PREFIX = "http://archive.test/wayback"

# 12 images per retry cycle tuned to ~1098 requests/minute overall
_CAROUSEL12_CYCLE = 12 * 60 / 1098.36


def _mre() -> tuple[PageSpec, str]:
    ts = "20210915120000"
    site = "http://mre.example"
    page = f"{ARCHIVE_PREFIX}/{ts}/{site}/MREcarousel.html"
    assets = (
        f"{ARCHIVE_PREFIX}/{ts}js_/{site}/js/jquery.min.js",
        f"{ARCHIVE_PREFIX}/{ts}js_/{site}/js/carousel.js",
        f"{ARCHIVE_PREFIX}/{ts}cs_/{site}/css/carousel.css",
    )
    images = tuple(f"{ARCHIVE_PREFIX}/{ts}im_/{site}/img/photo{i}.jpg" for i in (1, 2, 3))
    spec = PageSpec(
        name="mre",
        essential_resources=(page,) + assets,
        behaviors=(CarouselLoop(urls=images, period=1 / 3),),
        duration=60.0,
    )
    manifest = [
        _record(ts, 200, "text/html", f"{site}/MREcarousel.html", "<html>carousel</html>"),
        _record(ts, 200, "application/javascript", f"{site}/js/jquery.min.js", "jquery()"),
        _record(ts, 200, "application/javascript", f"{site}/js/carousel.js", "carousel()"),
        _record(ts, 200, "text/css", f"{site}/css/carousel.css", ".carousel{}"),
    ]
    manifest += [_record(ts, 404, "-", f"{site}/img/photo{i}.jpg", "") for i in (1, 2, 3)]
    return spec, "\n".join(manifest) + "\n"


def _carousel12() -> tuple[PageSpec, str]:
    ts = "20090628044051"
    js_ts = "20090628052553"
    site = "http://www.radiocomercial.iol.pt"
    page = f"{ARCHIVE_PREFIX}/{ts}/{site}/"
    slideshow = f"{ARCHIVE_PREFIX}/{js_ts}js_/{site}/jscript/slideshow/slideshow.js"
    spec = PageSpec(
        name="carousel12",
        essential_resources=(page, slideshow),
        behaviors=(
            LoaderRetry(
                template=f"{ARCHIVE_PREFIX}/{ts}im_/{site}/styles/slideshow/loader-#.png",
                count=12,
                cycle_period=_CAROUSEL12_CYCLE,
            ),
        ),
        duration=60.0,
    )
    manifest = [
        _record(ts, 200, "text/html", f"{site}/", "<html>radio</html>"),
        _record(js_ts, 200, "application/javascript", f"{site}/jscript/slideshow/slideshow.js", "loader()"),
    ]
    manifest += [
        _record(ts, 404, "-", f"{site}/styles/slideshow/loader-{i}.png", "") for i in range(12)
    ]
    return spec, "\n".join(manifest) + "\n"


def _onerror_playlist() -> tuple[PageSpec, str]:
    ts = "20100803165224"
    site = "http://www.radiocomercial.iol.pt"
    page = f"{ARCHIVE_PREFIX}/{ts}/{site}/"
    player_js = f"{ARCHIVE_PREFIX}/{ts}js_/{site}/js/player.js"
    cover = f"{ARCHIVE_PREFIX}/{ts}im_/{site}/global_aspx/images/cover_300[35X35].jpg"
    resize = f"{ARCHIVE_PREFIX}/{ts}mp_/{site}/global_aspx/resize.aspx?img=/upload/O/cover_300.jpg&h=35&w=35"
    nowplaying = f"{ARCHIVE_PREFIX}/{ts}mp_/{site}/xsl_files/includes/nowplaying.xsl"
    spec = PageSpec(
        name="onerror_playlist",
        essential_resources=(page, player_js),
        behaviors=(
            OnErrorFallback(primary=cover, fallback=resize, retry_period=2.0),
            XhrPoll(url=nowplaying, interval=3.0),
        ),
        duration=60.0,
    )
    manifest = [
        _record(ts, 200, "text/html", f"{site}/", "<html>playlist</html>"),
        _record(ts, 200, "application/javascript", f"{site}/js/player.js", "call_resize()"),
        _record(ts, 404, "-", f"{site}/global_aspx/images/cover_300[35X35].jpg", ""),
        _record(ts, 404, "-", f"{site}/global_aspx/resize.aspx?img=/upload/O/cover_300.jpg&h=35&w=35", ""),
        _record(ts, 404, "-", f"{site}/xsl_files/includes/nowplaying.xsl", ""),
    ]
    return spec, "\n".join(manifest) + "\n"


def _feed_poll() -> tuple[PageSpec, str]:
    page_ts, feed_ts = "20210901092755", "20210901092756"
    page = f"{ARCHIVE_PREFIX}/{page_ts}/https://www.livesport.com/en/"
    feeds = (
        f"{ARCHIVE_PREFIX}/{feed_ts}/https://d.livesport.com/en/x/feed/u_0_1",
        f"{ARCHIVE_PREFIX}/{feed_ts}/https://d.livesport.com/en/x/feed/sys_1",
    )
    spec = PageSpec(
        name="feed_poll",
        essential_resources=(page,),
        behaviors=tuple(XhrPoll(url=f, interval=5.0) for f in feeds),
        duration=60.0,
    )
    manifest = [
        _record(page_ts, 200, "text/html", "https://www.livesport.com/en/", "<html>scores</html>"),
        _record(feed_ts, 404, "-", "https://d.livesport.com/en/x/feed/u_0_1", ""),
        _record(feed_ts, 404, "-", "https://d.livesport.com/en/x/feed/sys_1", ""),
    ]
    return spec, "\n".join(manifest) + "\n"


def _record(ts: str, status: int, content_type: str, target: str, body: str) -> str:
    return f"{ts}\t{status}\t{content_type}\t{target}\tinline:{body}"


_SCENARIOS = {
    "mre": _mre,
    "carousel12": _carousel12,
    "onerror_playlist": _onerror_playlist,
    "feed_poll": _feed_poll,
}

SCENARIO_NAMES = tuple(sorted(_SCENARIOS))


def builtin_scenario(name: str) -> tuple[PageSpec, str]:
    """Return (page spec, upstream manifest text) for a canned scenario."""
    try:
        factory = _SCENARIOS[name]
    except KeyError:
        raise UnknownScenario(f"unknown scenario {name!r}; valid: {', '.join(SCENARIO_NAMES)}") from None
    return factory()


# ---------------------------------------------------------------------------
# Scenario spec file format (same key=value family as the proxy config).
# ---------------------------------------------------------------------------


def spec_from_text(text: str) -> PageSpec:
    """The page a scenario spec describes; a key that no field reads is an error."""
    items = configtext.parse_config_text(text)
    if "name" not in items or "duration" not in items:
        raise ConfigError("scenario spec needs 'name' and 'duration'")
    taken = {"name", "duration"}

    def read(key: str, kind: str = "str") -> object:
        """`key` read as `kind`, a field's annotation text (this module
        postpones annotations); a tuple reads the keys `key.0`, `key.1`, ..."""
        if kind.startswith("tuple"):
            keys = configtext.indexed_keys(items, key)
            taken.update(keys)
            return tuple(items[k] for k in keys)
        taken.add(key)
        parse = {"int": configtext.parse_int, "float": configtext.parse_float}.get(kind)
        return items[key] if parse is None else parse(items[key], key)

    behaviors: list[Behavior] = []
    for i in range(sum(k.startswith("behavior.") and k.endswith(".type") for k in items)):
        p = f"behavior.{i}"
        if f"{p}.type" not in items:
            raise ConfigError(f"behavior indices must be contiguous; missing {p}.type")
        btype = read(f"{p}.type")
        if btype not in BEHAVIOR_TYPES:
            raise ConfigError(f"{p}.type: unknown behavior type {btype!r}")
        cls = BEHAVIOR_TYPES[btype]
        try:
            behaviors.append(cls(**{f.name: read(f"{p}.{f.name}", f.type) for f in fields(cls)}))
        except KeyError as exc:
            raise ConfigError(f"{p}: missing key {exc}") from None
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    essential = read("essential", "tuple")
    unknown = set(items) - taken
    if unknown:
        raise ConfigError(f"unknown scenario spec keys: {', '.join(sorted(unknown))}")
    try:
        return PageSpec(items["name"], essential, tuple(behaviors), read("duration", "float"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
