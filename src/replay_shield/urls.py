"""Archival replay URL handling: URI-M parsing/formatting, canonical keys, fuzzy reduction.

A replay URL embeds the original resource URL behind an archive prefix and a
14-digit capture timestamp, e.g.

    https://web.archive.org/web/20090628044051im_/http://example.org/img.png

Percent-encoding in paths and queries is preserved byte-for-byte so that
formatting a parsed URL reproduces the input exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import datetime, timezone
from operator import itemgetter
from typing import Iterable, Sequence

# Any two-or-three-letter suffix ending in "_" (im_, js_, cs_, ...) is accepted
# as an opaque modifier.
_TS_SEGMENT = re.compile(r"/(\d{14})([a-z]{2,3}_)?/")
# The grammar datetime.strptime(ts, "%Y%m%d%H%M%S") applies to 14 digits: two
# digits a field (four for the year), with any Unicode digit where it has \d.
_TS14_FIELDS = re.compile(r"(\d{4})(1[0-2]|0[1-9])(3[01]|[12]\d|0[1-9])(2[0-3]|[01]\d)([0-5]\d)(6[01]|[0-5]\d)")
_SCHEME = re.compile(r"^[A-Za-z][A-Za-z0-9+.-]*://")
_ABSOLUTE_URL = re.compile(r"^([A-Za-z][A-Za-z0-9+.-]*)://([^/?#]*)([^?#]*)(?:\?([^#]*))?(?:#(.*))?$")
_DEFAULT_PORTS = {"http": 80, "https": 443}
_NAME = itemgetter(0)


class UrlError(ValueError):
    """Base class for replay-URL parsing failures."""


class NoTimestampSegment(UrlError):
    """The URL contains no /YYYYMMDDHHMMSS[mod_]/ path segment."""


class InvalidTimestamp(UrlError):
    """The 14-digit segment is not a valid calendar datetime."""


class MalformedTarget(UrlError):
    """The embedded target is not an absolute http(s) URL."""


@dataclass(frozen=True)
class UriR:
    """An original-resource URL, split into comparable parts.

    `query` keeps raw (undecoded) name/value strings in document order; a value
    of None means the parameter had no "=" at all.
    """

    scheme: str
    host: str
    port: int | None = None
    path: str = ""
    query: tuple[tuple[str, str | None], ...] = ()
    fragment: str | None = None

    def format(self) -> str:
        netloc = self.host if self.port is None else f"{self.host}:{self.port}"
        out = f"{self.scheme}://{netloc}{self.path}"
        if self.query:
            out += "?" + format_query(self.query)
        if self.fragment is not None:
            out += "#" + self.fragment
        return out


@dataclass(frozen=True)
class UriM:
    """A replay URL: archive prefix + 14-digit timestamp + optional modifier + target."""

    archive_prefix: str
    timestamp14: str
    modifier: str  # "" when absent
    target: UriR

    def format(self) -> str:
        return f"{self.archive_prefix}/{self.timestamp14}{self.modifier}/{self.target.format()}"


# all-digit query values longer than this count as cache busters
NUMERIC_PARAM_DIGITS = 8


@dataclass(frozen=True)
class FuzzyRuleSet:
    """Query-parameter stripping rules applied before canonicalization.

    A parameter is dropped when its name is in `strip_params`, or when
    `strip_numeric_only_params` is set and its value is all digits and longer
    than NUMERIC_PARAM_DIGITS characters. Scheme, host, and path are never touched.
    """

    strip_params: frozenset[str] = frozenset()
    strip_numeric_only_params: bool = False

    def strips(self, name: str, value: str | None) -> bool:
        if name in self.strip_params:
            return True
        if (
            self.strip_numeric_only_params
            and value is not None
            and value.isdigit()
            and len(value) > NUMERIC_PARAM_DIGITS
        ):
            return True
        return False


def strip_query_text(url: str, rules: FuzzyRuleSet) -> str:
    """`url` as text without the query segments `rules` strips, which parses as
    `url` does, with its key under `rules`. The query is where parse_urir finds
    it: after the first "?" before any "#". A query the strip empties loses its
    "?"; one it would leave with a lone empty segment stays whole, since "?" alone
    reads as no query. Nothing is decoded or reordered."""
    fragment_at = url.find("#")
    if fragment_at < 0:
        fragment_at = len(url)
    query_at = url.find("?", 0, fragment_at)
    if query_at < 0:
        return url
    segments = url[query_at + 1:fragment_at].split("&") if query_at + 1 < fragment_at else []
    kept = []
    for seg in segments:
        name, sep, value = seg.partition("=")
        if not rules.strips(name, value if sep else None):
            kept.append(seg)
    if not kept:
        return url[:query_at] + url[fragment_at:]
    if len(kept) == len(segments) or kept == [""]:
        return url
    return f"{url[:query_at]}?{'&'.join(kept)}{url[fragment_at:]}"


EMPTY_RULES = FuzzyRuleSet()


def split_query(raw: str) -> tuple[tuple[str, str | None], ...]:
    """Split a raw query string into (name, value) pairs without decoding."""
    if raw == "":
        return ()
    pairs = []
    for seg in raw.split("&"):
        name, sep, value = seg.partition("=")
        pairs.append((name, value if sep else None))
    return tuple(pairs)


def format_query(pairs: Iterable[tuple[str, str | None]]) -> str:
    return "&".join(n if v is None else f"{n}={v}" for n, v in pairs)


def parse_urir(url: str) -> UriR:
    """Parse an absolute http(s) URL into a UriR.

    Scheme and host are lowercased (DNS names are case-insensitive); path,
    query, and fragment bytes are kept exactly as given.
    """
    m = _ABSOLUTE_URL.match(url)
    if not m:
        raise MalformedTarget(f"not an absolute URL: {url!r}")
    scheme = m.group(1).lower()
    if scheme not in ("http", "https"):
        raise MalformedTarget(f"unsupported scheme {scheme!r} in {url!r}")
    netloc, path = m.group(2), m.group(3)
    rawquery, fragment = m.group(4), m.group(5)

    host, port = netloc, None
    if ":" in netloc:
        head, _, tail = netloc.rpartition(":")
        if tail.isdigit():  # true of non-ASCII digits too, such as "²"
            # a port is ASCII digits, and int() refuses more than 4,300 of them
            if not tail.isascii() or len(tail) > 4300:
                raise MalformedTarget(f"unreadable port in {url!r}")
            host, port = head, int(tail)
        elif tail == "":
            host = head
    host = host.lower()
    if not host:
        raise MalformedTarget(f"empty host in {url!r}")

    return UriR(
        scheme=scheme,
        host=host,
        port=port,
        path=path,
        query=split_query(rawquery) if rawquery is not None else (),
        fragment=fragment,
    )


def parse_urim(url: str) -> UriM:
    """Split a replay URL at its first /{14 digits}{modifier}/ path segment.

    Everything before the segment is the archive prefix, everything after is
    the embedded target, which must itself be an absolute http(s) URL.
    """
    prefix, ts, modifier, target_str = split_at_timestamp(url)
    if not _SCHEME.match(url):
        raise MalformedTarget(f"not an absolute URL: {url!r}")
    return UriM(
        archive_prefix=prefix,
        timestamp14=ts,
        modifier=modifier,
        target=parse_urir(target_str),
    )


def split_at_timestamp(path_or_url: str) -> tuple[str, str, str, str]:
    """Return (prefix, timestamp14, modifier, remainder) around the first timestamp segment.

    Works on absolute URLs and on bare request paths alike; validates that the
    timestamp is a real calendar datetime.
    """
    m = _TS_SEGMENT.search(path_or_url)
    if not m:
        raise NoTimestampSegment(f"no 14-digit timestamp segment in {path_or_url!r}")
    ts = m.group(1)
    validate_timestamp14(ts)
    modifier = m.group(2) or ""
    return path_or_url[: m.start()], ts, modifier, path_or_url[m.end():]


def timestamp14_datetime(ts: str) -> datetime:
    """The UTC datetime a 14-digit YYYYMMDDHHMMSS timestamp names.

    Accepts exactly the strings datetime.strptime(ts, "%Y%m%d%H%M%S") accepts
    among 14-digit ones, and raises InvalidTimestamp where it raises ValueError.
    """
    if len(ts) != 14 or not ts.isdigit():
        raise InvalidTimestamp(f"timestamp must be 14 digits: {ts!r}")
    m = _TS14_FIELDS.fullmatch(ts)
    if m is not None:
        try:
            return datetime(*map(int, m.groups()), tzinfo=timezone.utc)
        except ValueError:  # a day past the month's end, year 0, or second 60 or 61
            pass
    raise InvalidTimestamp(f"not a calendar datetime: {ts!r}")


def validate_timestamp14(ts: str) -> None:
    timestamp14_datetime(ts)


def format_urim(m: UriM) -> str:
    return m.format()


def canonical_form(u: UriR) -> UriR:
    """Normalize a UriR: drop fragment and default port, sort query pairs by name.

    The sort is stable, so pairs sharing a name keep their original order.
    Idempotent by construction.
    """
    return UriR(u.scheme, u.host, _canonical_port(u), u.path or "/", tuple(sorted(u.query, key=_NAME)))


def _canonical_port(u: UriR) -> int | None:
    """The port a canonical URL names: None for the scheme's default."""
    return None if u.port == _DEFAULT_PORTS.get(u.scheme) else u.port


def canonicalize(u: UriR) -> str:
    """Render a SURT-style cache key: reversed host, no scheme, normalized parts.

    Example: http://www.example.org/a?b=2&a=1 -> "org,example,www)/a?a=1&b=2"
    """
    return _surt(u, u.query)


def _surt(u: UriR, query: Sequence[tuple[str, str | None]]) -> str:
    """The SURT key of canonical_form(u) with `query` as its query, rendered
    without building that UriR."""
    port = _canonical_port(u)
    port_part = "" if port is None else f":{port}"
    query_part = "?" + format_query(sorted(query, key=_NAME)) if query else ""
    return f"{','.join(reversed(u.host.split('.')))}{port_part}){u.path or '/'}{query_part}"


def fuzzy_reduce(u: UriR, rules: FuzzyRuleSet = EMPTY_RULES) -> str:
    """Canonical key after deleting volatile query parameters per `rules`."""
    return _surt(u, [p for p in u.query if not rules.strips(p[0], p[1])])


def fuzzy_key_of(url: str, rules: FuzzyRuleSet = EMPTY_RULES) -> str:
    """Fuzzy key for a raw URL string (the canonical key under EMPTY_RULES);
    falls back to the string itself when unparsable."""
    try:
        return fuzzy_reduce(parse_urir(url), rules)
    except UrlError:
        return url

