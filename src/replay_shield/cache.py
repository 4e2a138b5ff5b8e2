"""Shared response cache with Cache-Control freshness semantics and negative (404) caching.

Time never comes from a wall clock here; every operation takes `now` so runs
are reproducible. A response stored at t with lifetime L that arrived with
`Age: a` is fresh for queries in [t, t+L-a) and stale from t+L-a on, which
makes max-age=0 mean "never fresh".
"""

from __future__ import annotations

import threading
from calendar import timegm
from collections import OrderedDict
from dataclasses import dataclass
from email.utils import parsedate
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

from .httpmsg import Response
from .urls import EMPTY_RULES, FuzzyRuleSet, fuzzy_key_of


@dataclass(frozen=True)
class CacheControlDirectives:
    private: bool = False
    no_store: bool = False
    no_cache: bool = False
    max_age: int | None = None
    s_maxage: int | None = None


# a response's Cache-Control value is one of a few, parsed once each; the bound
# holds the memo's size under an upstream that varies it
CACHE_CONTROL_MEMO_SIZE = 1024

# the greatest delta-seconds a cache need represent (RFC 9111 section 1.2.2)
DELTA_SECONDS_MAX = 2**31


def delta_seconds(value: str) -> int | None:
    """`value` read as delta-seconds (RFC 9111 section 1.2.2): one or more ASCII
    digits, a value past DELTA_SECONDS_MAX read as it; None for anything else."""
    if not (value.isascii() and value.isdigit()):
        return None
    digits = value.lstrip("0")  # int() refuses more than 4,300 digits
    return DELTA_SECONDS_MAX if len(digits) > 10 else min(int(digits or "0"), DELTA_SECONDS_MAX)


@lru_cache(maxsize=CACHE_CONTROL_MEMO_SIZE)
def parse_cache_control(header_value: str | None) -> CacheControlDirectives:
    """Lenient Cache-Control parse: case-insensitive names, unknown directives
    ignored, a max-age or s-maxage that is not delta-seconds treated as absent,
    and of two that are, the first used (RFC 9111 section 4.2.1). Memoized per
    value; the directives are frozen, so callers share them."""
    private = no_store = no_cache = False
    max_age: int | None = None
    s_maxage: int | None = None
    for token in (header_value or "").split(","):
        name, _, value = token.strip().partition("=")
        name = name.strip().lower()
        value = value.strip().strip('"')
        if name == "private":
            private = True
        elif name == "no-store":
            no_store = True
        elif name == "no-cache":
            no_cache = True
        elif name in ("max-age", "s-maxage"):
            parsed = delta_seconds(value)
            if parsed is None:
                continue
            if name == "max-age":
                max_age = parsed if max_age is None else max_age
            else:
                s_maxage = parsed if s_maxage is None else s_maxage
    return CacheControlDirectives(private, no_store, no_cache, max_age, s_maxage)


def cache_control_of(response: Response) -> CacheControlDirectives:
    """The directives of every Cache-Control field line of `response`, read as
    one list (RFC 9110 section 5.3): a `no-store` on a second line counts."""
    lines = [v for n, v in response.headers if n.lower() == "cache-control"]
    return parse_cache_control(", ".join(lines))


class KeyMode(str, Enum):
    EXACT = "exact"
    CANONICAL = "canonical"
    FUZZY = "fuzzy"


# fuzzy keys drop cache-buster parameters: long all-digit values
FUZZY_RULES = FuzzyRuleSet(strip_numeric_only_params=True)

# the query rules of each key mode that derives its key from the URL; an exact
# key is the URL itself
KEY_RULES = {KeyMode.CANONICAL: EMPTY_RULES, KeyMode.FUZZY: FUZZY_RULES}

# captures and negative (404) answers; redirects and errors are always refetched
CACHEABLE_STATUSES = frozenset({200, 404})


@dataclass(frozen=True)
class CachePolicy:
    """How long responses are kept, how they are keyed and how many fit."""

    default_max_age: int = 600
    key_mode: KeyMode = KeyMode.EXACT
    capacity: int = 10_000

    def __post_init__(self):
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")
        if self.default_max_age < 0:
            raise ValueError("default_max_age must be >= 0")


class CacheKey(NamedTuple):
    method: str
    key: str


def make_cache_key(url: str, policy: CachePolicy) -> CacheKey:
    """The GET key of `url`; a HEAD is answered from the GET's entry."""
    rules = KEY_RULES.get(policy.key_mode)
    return CacheKey("GET", url if rules is None else fuzzy_key_of(url, rules))


@dataclass(frozen=True)
class CachedResponse:
    status: int
    headers: tuple[tuple[str, str], ...]
    body: bytes
    stored_at: float  # arrival time minus the Age the response arrived with
    freshness_lifetime: float

    def is_fresh(self, now: float) -> bool:
        return now - self.stored_at < self.freshness_lifetime

    def to_response(self) -> Response:
        return Response(self.status, self.headers, self.body)


# the fields a stored answer is kept without: a hit adds its own
_ADDED_ON_HIT = frozenset({"age", "x-cache"})


def cache_entry(response: Response, now: float, freshness_lifetime: float) -> CachedResponse:
    """`response`, received at `now`, as an entry that is fresh for
    `freshness_lifetime` seconds from its generation. The Age it arrived with
    (RFC 9111 section 4.2.3; missing or malformed counts as 0) is already spent,
    so the entry is dated that many seconds before `now` and keeps no Age, nor
    the X-Cache marker of the cache it came through."""
    arrival_age = delta_seconds((response.header("Age") or "").strip()) or 0
    headers = tuple(field for field in response.headers if field[0].lower() not in _ADDED_ON_HIT)
    return CachedResponse(response.status, headers, response.body, now - arrival_age, freshness_lifetime)


def _expires_lifetime(response: Response) -> float:
    """`Expires` minus `Date` (RFC 9111 section 4.2.1), at most DELTA_SECONDS_MAX.
    An `Expires` that does not parse, such as `0`, or that names no year timegm
    can place, or a missing `Date` means already expired (section 5.3)."""
    try:  # an HTTP-date is always GMT, so the zone is not read
        lifetime = timegm(parsedate(response.header("Expires"))) - timegm(parsedate(response.header("Date")))
    except (TypeError, ValueError, OverflowError):  # no date, or a year past 9999 or past a C long
        return 0.0
    return float(min(max(0, lifetime), DELTA_SECONDS_MAX))


class LookupState(Enum):
    FRESH = "fresh"
    STALE = "stale"
    MISS = "miss"


@dataclass(frozen=True)
class LookupResult:
    state: LookupState
    entry: CachedResponse | None = None


class StoreOutcome(Enum):
    STORED = "stored"
    REJECTED_NO_STORE = "no_store"
    REJECTED_PRIVATE = "private"
    REJECTED_STATUS = "status_not_cacheable"
    REJECTED_VARY_ANY = "vary_any"

    @property
    def stored(self) -> bool:
        return self is StoreOutcome.STORED


class ResponseCache:
    """LRU response cache bound to one CachePolicy.

    Safe under concurrent callers; a lookup racing a store of the same key sees
    either the old entry or the new one, never a torn mix. Stale entries are
    reported as STALE (not dropped) so the proxy can refresh them on demand;
    they keep occupying capacity until overwritten or evicted.
    """

    def __init__(self, policy: CachePolicy):
        self.policy = policy
        self._entries: OrderedDict[CacheKey, CachedResponse] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def lookup(self, key: CacheKey, now: float) -> LookupResult:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return LookupResult(LookupState.MISS)
            self._entries.move_to_end(key)
            state = LookupState.FRESH if entry.is_fresh(now) else LookupState.STALE
            return LookupResult(state, entry)

    def store(self, key: CacheKey, response: Response, directives: CacheControlDirectives, now: float) -> StoreOutcome:
        if directives.no_store:
            return StoreOutcome.REJECTED_NO_STORE
        # a shared cache must not store a response meant for one user (RFC 9111 section 3.5)
        if directives.private:
            return StoreOutcome.REJECTED_PRIVATE
        if response.status not in CACHEABLE_STATUSES:
            return StoreOutcome.REJECTED_STATUS
        # a stored answer that varies on `*` never matches a request (RFC 9111 section 4.1)
        if any(member.strip() == "*" for name, value in response.headers if name.lower() == "vary"
               for member in value.split(",")):
            return StoreOutcome.REJECTED_VARY_ANY
        # a shared cache takes s-maxage over max-age (RFC 9111 section 5.2.2.10)
        lifetime = directives.max_age if directives.s_maxage is None else directives.s_maxage
        if lifetime is None and response.header("Expires") is not None:
            lifetime = _expires_lifetime(response)
        if lifetime is None:
            lifetime = self.policy.default_max_age
        # no-cache: stored, but never fresh, so each request goes to the origin (section 5.2.2.4)
        entry = cache_entry(response, now, 0.0 if directives.no_cache else float(lifetime))
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.policy.capacity:
                self._entries.popitem(last=False)
        return StoreOutcome.STORED
