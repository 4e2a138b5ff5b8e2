"""Caching reverse proxy: throttle, cache lookup, upstream fetch, header injection, metrics.

The proxy never reads a wall clock; `handle_request` takes `now` explicitly so
in-process runs are deterministic. The live socket front end (wire.py) feeds it
monotonic time instead.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache, partial
from typing import Callable, NamedTuple
from urllib.parse import urlsplit

from . import configtext
from .cache import (
    KEY_RULES,
    CacheKey,
    CachePolicy,
    CachedResponse,
    KeyMode,
    LookupState,
    ResponseCache,
    cache_control_of,
    make_cache_key,
)
from .configtext import ConfigError
from .httpmsg import Request, Response, origin_form, text_response
from .urls import fuzzy_key_of, strip_query_text

INJECTION_HEADER = "public, max-age=600"
METRICS_PATH = "/__metrics"


class UpstreamUnreachable(Exception):
    """Raised by an upstream callable when the origin cannot be reached."""


class InjectionMode(str, Enum):
    ALWAYS = "always"
    MISSING_ONLY = "missing_only"
    STATUS_404_ONLY = "status_404_only"
    OFF = "off"


@dataclass(frozen=True)
class ThrottleConfig:
    """The proxy's limiter for the archive's patch endpoint: requests that name a
    patch_target go through a SlidingWindowThrottle keyed on that target."""

    enabled: bool = False


# the archive's live-web patch endpoint, and how long a target's repeat patch
# attempts are answered 429; the proxy and the simulated archive share both
PATCH_PATH_PREFIX = "/save/_embed/"
PATCH_THROTTLE_SECONDS = 30.0


def patch_target(path: str) -> str | None:
    """The URL a request to the patch endpoint asks the archive to save, or
    None when origin-form target `path` is not such a request."""
    return path[len(PATCH_PATH_PREFIX):] if path.startswith(PATCH_PATH_PREFIX) else None


class SlidingWindowThrottle:
    """The patch endpoint's limiter: one allowed attempt per target per
    PATCH_THROTTLE_SECONDS; denied attempts do not extend the window.

    Targets are keyed by `fuzzy_key_of`, so every spelling of one target shares
    a window. Keys are kept in the order of their last allowed time, which
    arrives in time order, so keys whose window has passed are forgotten from
    the front and the map holds only the keys allowed within the last window.
    """

    def __init__(self):
        self._last_allowed: OrderedDict[str, float] = OrderedDict()
        self._lock = threading.Lock()

    def check(self, target_url: str, now: float) -> Response | None:
        """None to let an attempt at `target_url` through, else the 429 with
        Retry-After in whole seconds, at least 1."""
        key = fuzzy_key_of(target_url)
        cutoff = now - PATCH_THROTTLE_SECONDS
        with self._lock:
            last_allowed = self._last_allowed
            while last_allowed and next(iter(last_allowed.values())) <= cutoff:
                last_allowed.popitem(last=False)
            last = last_allowed.get(key)
            # a concurrent caller's `now` may be slightly older, leaving an
            # expired key behind a live one
            if last is not None and last > cutoff:
                retry_after = max(1, math.ceil(last + PATCH_THROTTLE_SECONDS - now))
                return Response(429, (("Retry-After", str(retry_after)),))
            last_allowed[key] = now
            last_allowed.move_to_end(key)
            return None


@dataclass(frozen=True)
class ProxyMetrics:
    client_requests: int = 0
    cache_hits_fresh: int = 0
    upstream_requests: int = 0
    throttled_429: int = 0
    responses_by_status: dict[int, int] = field(default_factory=dict)


class Outcome(str, Enum):
    """How a counted request was answered, by the ProxyMetrics field that
    counts it; every 502 is UPSTREAM. A str hashes in C, a plain Enum does not."""

    HIT = "cache_hits_fresh"
    UPSTREAM = "upstream_requests"
    THROTTLED = "throttled_429"


class Tally:
    """Counts per key under one lock, so the counts of one snapshot agree."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counts: dict = {}

    def add(self, key) -> None:
        with self._lock:
            self._counts[key] = self._counts.get(key, 0) + 1

    def snapshot(self) -> dict:
        with self._lock:
            return dict(self._counts)


def render_metrics(m: ProxyMetrics) -> str:
    lines = [f"client_requests {m.client_requests}"] + [f"{o.value} {getattr(m, o.value)}" for o in Outcome]
    for status in sorted(m.responses_by_status):
        lines.append(f"status_{status} {m.responses_by_status[status]}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ProxyConfig:
    listen_address: str = "127.0.0.1:8080"
    upstream_address: str = "127.0.0.1:8081"
    policy: CachePolicy = field(default_factory=CachePolicy)
    injection_mode: InjectionMode = InjectionMode.ALWAYS
    throttle: ThrottleConfig = field(default_factory=ThrottleConfig)
    proxy_caching_enabled: bool = True


def inject_cache_control(response: Response, mode: InjectionMode) -> Response:
    """Set Cache-Control to INJECTION_HEADER as `mode` says; status and body
    are untouched. A 429 or 5xx is never stamped, so no client keeps a passing
    throttle or outage as the answer."""
    if mode is InjectionMode.OFF or response.status == 429 or response.status >= 500:
        return response
    if mode is InjectionMode.MISSING_ONLY and response.header("Cache-Control") is not None:
        return response
    if mode is InjectionMode.STATUS_404_ONLY and response.status != 404:
        return response
    return response.with_header("Cache-Control", INJECTION_HEADER)


# the answers to a malformed request and when the upstream cannot be reached;
# Response is frozen, so one serves all
_BAD_REQUEST = text_response(400, "bad request").with_header("X-Cache", "MISS")
_UNREACHABLE = text_response(502, "upstream unreachable").with_header("X-Cache", "MISS")


class _PatchRequest(NamedTuple):
    """The route of a patch request with the throttle on, answered by `key` if allowed."""

    key: CacheKey | None


def _route_of(config: ProxyConfig, url: str) -> CacheKey | _PatchRequest | Response | str | None:
    """What a GET or HEAD of `url` asks of a proxy with `config`, alike for every
    URL with `url` as label: the metrics text (METRICS_PATH), the uncounted 400,
    a patch request to throttle, a fetch that bypasses the cache (None) or its key."""
    try:
        parts = urlsplit(url)
    except ValueError:  # such as a host with an unclosed "["
        return _BAD_REQUEST
    if parts.path == METRICS_PATH:
        return METRICS_PATH
    if not parts.scheme or not parts.netloc:
        return _BAD_REQUEST
    key = make_cache_key(url, config.policy) if config.proxy_caching_enabled else None
    if config.throttle.enabled and parts.path.startswith(PATCH_PATH_PREFIX):
        return _PatchRequest(key)
    return key


class _Flight:
    """One cache key's upstream fetch. Its leader holds `lock` until the fetch
    is done, so a request that waits on the lock waits for the answer."""

    __slots__ = ("lock", "failed")

    def __init__(self):
        self.lock = threading.Lock()
        self.lock.acquire()
        self.failed = False


class ReverseProxy:
    """Request pipeline: throttle -> cache lookup -> upstream fetch -> inject -> store.

    `upstream` maps a Request to a Response; it may be the in-process simulator
    or a socket client. It signals connection failure with UpstreamUnreachable.
    Concurrent misses on one cache key share a single upstream fetch.

    A URL's route is worked out once: under canonical and fuzzy keys with
    caching on, `_route_of` is memoized (LRU, `policy.capacity` entries) by the
    URL's label, its text without the query segments its KEY_RULES strip, so
    each cache-busted poll finds the route of the polls before it.
    """

    def __init__(self, config: ProxyConfig, upstream: Callable[[Request], Response]):
        self.config = config
        self.upstream = upstream
        self.cache = ResponseCache(config.policy)
        self.throttle = SlidingWindowThrottle()
        self._tally = Tally()  # (Outcome, status) pairs
        self._inflight: dict[CacheKey, _Flight] = {}
        self._inflight_guard = threading.Lock()
        # the query rules a URL's label is stripped by; None: the label is the URL, with no memo
        self._key_rules = KEY_RULES.get(config.policy.key_mode) if config.proxy_caching_enabled else None
        route_of = partial(_route_of, config)  # a function, not a method: the memo holds no cycle through the proxy
        self._route_of = route_of if self._key_rules is None else lru_cache(maxsize=config.policy.capacity)(route_of)

    def metrics_snapshot(self) -> ProxyMetrics:
        """Every count from one snapshot; client_requests is their sum."""
        by_outcome = dict.fromkeys(Outcome, 0)
        by_status: dict[int, int] = {}
        for (outcome, status), n in self._tally.snapshot().items():
            by_outcome[outcome] += n
            by_status[status] = by_status.get(status, 0) + n
        return ProxyMetrics(sum(by_outcome.values()), **by_outcome, responses_by_status=by_status)

    def handle_request(self, request: Request, now: float) -> Response:
        # malformed requests never enter the counted pipeline
        if request.method not in ("GET", "HEAD"):
            return _BAD_REQUEST
        url = request.url
        label = url if self._key_rules is None else strip_query_text(url, self._key_rules)
        route = self._route_of(label)
        if type(route) is _PatchRequest:
            throttled = self.throttle.check(patch_target(origin_form(url)), now)
            if throttled is not None:
                return self._answer(Outcome.THROTTLED, throttled.with_header("X-Cache", "MISS"))
            route = route.key
        if type(route) is CacheKey:
            if label is not url and route.key == label:  # the label does not parse, so neither does the URL
                route = CacheKey("GET", url)  # the fallback key, the URL itself
            return self._cached(request, route, now)
        if route is METRICS_PATH:
            return text_response(200, render_metrics(self.metrics_snapshot()))
        return self._fetch(request, None, now) if route is None else route

    def _cached(self, request: Request, key: CacheKey, now: float) -> Response:
        """Answer a GET or HEAD from the entry under `key`, or fetch and store it.
        A HEAD is answered from the stored GET (RFC 9110 section 9.3.2); the wire
        sends its head alone."""
        found = self.cache.lookup(key, now)
        if found.state is LookupState.FRESH:
            return self._hit(found.entry, now)
        if request.method == "HEAD":
            return self._fetch(request, None, now)  # an answer without its body is never stored

        # Single flight: the first request to miss a key leads its flight and
        # fetches; the others wait for the leader. They share its failure, take
        # a stored answer as a HIT, and after any other answer fetch in
        # parallel (RFC 9111 section 4). The key's entry lives while its leader
        # fetches.
        with self._inflight_guard:
            flight = self._inflight.get(key)
            leading = flight is None
            if leading:
                flight = self._inflight[key] = _Flight()
        if not leading:
            with flight.lock:  # held by the leader until its fetch is done
                pass
            if flight.failed:
                return self._answer(Outcome.UPSTREAM, _UNREACHABLE)
        try:
            # the leader's answer, or one stored since the lookup above
            found = self.cache.lookup(key, now)
            if found.state is LookupState.FRESH:
                return self._hit(found.entry, now)
            response = self._fetch(request, key, now)
            if leading:
                flight.failed = response is _UNREACHABLE
            return response
        finally:
            if leading:
                with self._inflight_guard:
                    del self._inflight[key]
                flight.lock.release()

    def _hit(self, entry: CachedResponse, now: float) -> Response:
        """The stored response as served from cache: an entry is kept without
        Age and X-Cache, so its Age (RFC 9111 sections 4 and 5.1) and the HIT
        marker are appended."""
        headers = entry.headers + (("Age", str(int(now - entry.stored_at))), ("X-Cache", "HIT"))
        return self._answer(Outcome.HIT, Response(entry.status, headers, entry.body))

    def _fetch(self, request: Request, key: CacheKey | None, now: float) -> Response:
        """Forward to the upstream; store the answer under `key` unless it is None."""
        try:
            response = self.upstream(request)
        except UpstreamUnreachable:
            return self._answer(Outcome.UPSTREAM, _UNREACHABLE)
        response = inject_cache_control(response, self.config.injection_mode)
        if key is not None:
            directives = cache_control_of(response)
            self.cache.store(key, response, directives, now)
        return self._answer(Outcome.UPSTREAM, response.with_header("X-Cache", "MISS"))

    def _answer(self, outcome: Outcome, response: Response) -> Response:
        """`response`, counted once, by `outcome` and by its status."""
        self._tally.add((outcome, response.status))
        return response


CONFIG_KEYS = frozenset({
    "listen", "upstream", "injection.mode", "cache.enabled", "cache.max_age",
    "cache.key_mode", "cache.capacity", "throttle.enabled",
})


def proxy_config_from_text(text: str) -> ProxyConfig:
    """Build a ProxyConfig from `key = value` config text; a key left out keeps
    ProxyConfig's default, and any key outside CONFIG_KEYS is an error."""
    items = configtext.parse_config_text(text)
    unknown = set(items) - CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")

    def read(key, parse, default):
        return parse(items[key], key) if key in items else default

    defaults = ProxyConfig()
    try:
        mode = InjectionMode(items.get("injection.mode", defaults.injection_mode))
    except ValueError as exc:
        raise ConfigError(f"injection.mode: {exc}") from None
    try:
        key_mode = KeyMode(items.get("cache.key_mode", defaults.policy.key_mode))
    except ValueError:
        raise ConfigError("cache.key_mode: expected one of exact/canonical/fuzzy") from None
    try:
        return ProxyConfig(
            listen_address=items.get("listen", defaults.listen_address),
            upstream_address=items.get("upstream", defaults.upstream_address),
            policy=CachePolicy(
                default_max_age=read("cache.max_age", configtext.parse_int, defaults.policy.default_max_age),
                key_mode=key_mode,
                capacity=read("cache.capacity", configtext.parse_int, defaults.policy.capacity),
            ),
            injection_mode=mode,
            throttle=ThrottleConfig(read("throttle.enabled", configtext.parse_bool, defaults.throttle.enabled)),
            proxy_caching_enabled=read("cache.enabled", configtext.parse_bool, defaults.proxy_caching_enabled),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
